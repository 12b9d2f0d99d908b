// Fixed pool of worker threads; each worker owns a set of bounded
// per-tenant sub-queues ("lanes") drained by deficit-weighted round
// robin.
//
// The runtime front-end pins every shard to one worker (shard index mod
// pool size), so jobs touching one shard execute in submission order on
// one thread. Within a worker, each tenant posts into its own lane:
//
//   - admission: a lane at its own capacity, or a worker at its
//     aggregate capacity, fails try_post() immediately -- the caller
//     turns that into Errc::rejected. A tenant can therefore fill only
//     its *own* lane; it cannot occupy another tenant's queue space.
//   - dispatch: the worker serves lanes round-robin, granting each
//     non-empty lane a deficit of `weight` job credits per visit and
//     serving until the credit or the lane is exhausted (unit job cost,
//     so the classic DRR quantum arithmetic has no fractional residue).
//     A tenant with weight w gets w/Σw of a contended worker no matter
//     how deep any other tenant's lane is -- the fair-share half of the
//     QoS model (DESIGN.md §12).
//
// Lane 0 is the default tenant; the tenant-less try_post() overload
// posts there with weight 1, preserving the pre-QoS FIFO behavior for
// single-tenant callers.
//
// Shutdown drains: stop() stops admission, lets every worker finish all
// jobs queued in every lane, then joins. The destructor calls stop().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace memfss::rt {

class ThreadPool {
 public:
  using Job = std::function<void()>;

  struct Options {
    std::size_t threads = 1;            ///< worker count (>= 1)
    std::size_t queue_capacity = 1024;  ///< per-worker aggregate bound (>= 1)
  };

  explicit ThreadPool(Options opt);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }
  std::size_t capacity() const { return cap_; }  ///< per-worker aggregate

  /// Enqueue `job` on worker `worker % size()` in tenant lane `lane`
  /// with the given round-robin weight and lane capacity (both >= 1;
  /// lane_cap additionally clamps to the worker aggregate). Returns
  /// false (job not taken) when the lane or the worker is full or the
  /// pool is stopping -- the caller's backpressure signal.
  bool try_post(std::size_t worker, std::uint32_t lane, std::uint32_t weight,
                std::size_t lane_cap, Job job);

  /// Tenant-less convenience: lane 0, weight 1, lane bound = worker
  /// bound (the pre-QoS single-queue behavior).
  bool try_post(std::size_t worker, Job job) {
    return try_post(worker, 0, 1, cap_, std::move(job));
  }

  /// Jobs waiting on one worker across all lanes (not the one
  /// executing).
  std::size_t queue_depth(std::size_t worker) const;
  /// Jobs waiting in one lane of one worker.
  std::size_t queue_depth(std::size_t worker, std::uint32_t lane) const;

  /// Stop admission, drain every lane, join all workers. Idempotent.
  void stop();

 private:
  struct Lane {
    std::deque<Job> q;
    std::uint32_t weight = 1;
    std::uint32_t deficit = 0;  ///< job credits left in the current visit
  };

  struct Worker {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::vector<std::unique_ptr<Lane>> lanes;  ///< slot-indexed, lazy
    std::size_t total = 0;   ///< queued jobs across lanes
    std::size_t cursor = 0;  ///< round-robin position
    std::thread th;
  };

  /// Pop the next job by deficit round robin. Caller holds w.mu and
  /// guarantees w.total > 0.
  Job take_locked(Worker& w);
  void run(Worker& w);

  std::size_t cap_;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace memfss::rt
