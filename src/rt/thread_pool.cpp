#include "rt/thread_pool.hpp"

#include <algorithm>

namespace memfss::rt {

ThreadPool::ThreadPool(Options opt)
    : cap_(opt.queue_capacity ? opt.queue_capacity : 1) {
  const std::size_t n = opt.threads ? opt.threads : 1;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>());
  // Threads start only after the vector is fully built so run() never
  // sees a partially constructed pool.
  for (auto& wp : workers_) wp->th = std::thread([this, w = wp.get()] { run(*w); });
}

ThreadPool::~ThreadPool() { stop(); }

bool ThreadPool::try_post(std::size_t worker, std::uint32_t lane,
                          std::uint32_t weight, std::size_t lane_cap,
                          Job job) {
  auto& w = *workers_[worker % workers_.size()];
  {
    std::lock_guard lk(w.mu);
    if (stopping_.load(std::memory_order_relaxed) || w.total >= cap_)
      return false;
    if (lane >= w.lanes.size()) w.lanes.resize(lane + 1);
    if (!w.lanes[lane]) w.lanes[lane] = std::make_unique<Lane>();
    Lane& l = *w.lanes[lane];
    l.weight = std::max<std::uint32_t>(weight, 1);
    if (l.q.size() >= std::max<std::size_t>(lane_cap, 1)) return false;
    l.q.push_back(std::move(job));
    ++w.total;
  }
  w.cv.notify_one();
  return true;
}

std::size_t ThreadPool::queue_depth(std::size_t worker) const {
  auto& w = *workers_[worker % workers_.size()];
  std::lock_guard lk(w.mu);
  return w.total;
}

std::size_t ThreadPool::queue_depth(std::size_t worker,
                                    std::uint32_t lane) const {
  auto& w = *workers_[worker % workers_.size()];
  std::lock_guard lk(w.mu);
  if (lane >= w.lanes.size() || !w.lanes[lane]) return 0;
  return w.lanes[lane]->q.size();
}

ThreadPool::Job ThreadPool::take_locked(Worker& w) {
  // Deficit round robin over lanes: a non-empty lane is granted
  // `weight` job credits when the cursor arrives and is served until
  // the credits or the lane run out; an emptied lane forfeits leftover
  // credit (an idle tenant must not bank shares). total > 0 guarantees
  // the scan terminates.
  while (true) {
    if (w.cursor >= w.lanes.size()) w.cursor = 0;
    Lane* l = w.lanes[w.cursor].get();
    if (!l || l->q.empty()) {
      if (l) l->deficit = 0;
      ++w.cursor;
      continue;
    }
    if (l->deficit == 0) l->deficit = l->weight;
    Job job = std::move(l->q.front());
    l->q.pop_front();
    --w.total;
    if (--l->deficit == 0 || l->q.empty()) {
      l->deficit = 0;
      ++w.cursor;
    }
    return job;
  }
}

void ThreadPool::run(Worker& w) {
  for (bool ran = false;; ran = true) {
    Job job;
    {
      std::unique_lock lk(w.mu);
      if (ran) w.busy = false;  // our previous job has returned
      // A queued job waits out an inline claim; a stopping, drained
      // worker exits without waiting (no job can be posted any more).
      w.cv.wait(lk, [&] {
        return (w.total > 0 && !w.busy) ||
               (w.total == 0 && stopping_.load(std::memory_order_relaxed));
      });
      if (w.total == 0) return;  // stopping and drained
      job = take_locked(w);
      w.busy = true;
    }
    job();
  }
}

void ThreadPool::release_claim(Worker& w) {
  bool queued = false;
  {
    std::lock_guard lk(w.mu);
    w.busy = false;
    queued = w.total > 0;
  }
  if (queued) w.cv.notify_one();
}

void ThreadPool::stop() {
  // Set the flag under every worker's mutex so a worker between its
  // predicate check and its wait cannot miss the final notify.
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& wp : workers_) {
    {
      std::lock_guard lk(wp->mu);
    }
    wp->cv.notify_all();
  }
  for (auto& wp : workers_)
    if (wp->th.joinable()) wp->th.join();
}

}  // namespace memfss::rt
