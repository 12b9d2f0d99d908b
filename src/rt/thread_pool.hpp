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
// Inline claim: try_run_inline() lets the caller run one job on its own
// thread *as* a worker, when that worker is idle -- nothing queued in
// any lane and nothing running. The claim marks the worker busy, so its
// own thread waits it out and every job posted meanwhile queues behind
// it. A worker therefore still executes one job at a time, in
// submission order, whichever thread runs it; and because a claim
// exists only when no lane holds a job, DRR has nothing to be fair
// about while one runs.
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
#include <utility>
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

  /// Run `fn` on the calling thread as worker `worker % size()`'s next
  /// job if that worker is idle (no job queued, none running, pool not
  /// stopping); returns false, without running `fn`, otherwise. While
  /// `fn` runs the worker counts as busy (see the file comment).
  template <class Fn>
  bool try_run_inline(std::size_t worker, Fn&& fn);

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
    bool busy = false;       ///< a job is running (own thread or a claim)
    std::thread th;
  };

  /// Pop the next job by deficit round robin. Caller holds w.mu and
  /// guarantees w.total > 0.
  Job take_locked(Worker& w);
  void run(Worker& w);
  /// End an inline claim: clear busy, wake the worker if jobs queued.
  void release_claim(Worker& w);

  std::size_t cap_;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Worker>> workers_;
};

template <class Fn>
bool ThreadPool::try_run_inline(std::size_t worker, Fn&& fn) {
  Worker& w = *workers_[worker % workers_.size()];
  {
    std::lock_guard lk(w.mu);
    if (w.total > 0 || w.busy || stopping_.load(std::memory_order_relaxed))
      return false;
    w.busy = true;
  }
  struct Release {
    ThreadPool* pool;
    Worker& w;
    ~Release() { pool->release_claim(w); }
  } release{this, w};
  std::forward<Fn>(fn)();
  return true;
}

}  // namespace memfss::rt
