// WorkerHold: keep one RuntimeServer worker busy until release().
//
// A helper thread submits one op whose completion callback blocks on a
// flag. Wherever that op executes -- on the owning worker, or on the
// submitting helper thread when the worker was idle -- the worker counts
// as busy until the callback returns, so every op routed to it in the
// meantime queues in its tenant lane behind the hold. Construct it after
// the server (so it is released before the server drains) and route the
// held op to the worker under test by its key.
#pragma once

#include <atomic>
#include <string>
#include <thread>

#include "rt/server.hpp"

namespace memfss::rt {

class WorkerHold {
 public:
  WorkerHold(RuntimeServer& server, std::string key, std::string token = "")
      : th_([this, &server, key = std::move(key), token = std::move(token)] {
          server.submit_async(token, Op{Op::Type::get, key, {}, 0},
                              [this](OpResult) {
                                entered_.store(true);
                                entered_.notify_all();
                                released_.wait(false);
                              });
        }) {
    entered_.wait(false);
  }
  ~WorkerHold() {
    release();
    th_.join();
  }
  WorkerHold(const WorkerHold&) = delete;
  WorkerHold& operator=(const WorkerHold&) = delete;

  void release() {
    released_.store(true);
    released_.notify_all();
  }

 private:
  std::atomic<bool> entered_{false};
  std::atomic<bool> released_{false};
  std::thread th_;  // last: started once the flags exist
};

}  // namespace memfss::rt
