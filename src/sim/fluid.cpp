#include "sim/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace memfss::sim {

namespace {
// Work below this is "done" -- absorbs float error in remaining-work math.
constexpr double kWorkEpsilon = 1e-9;
}  // namespace

FluidResource::FluidResource(Simulator& sim, double capacity,
                             std::string name)
    : sim_(sim), capacity_(capacity), name_(std::move(name)) {
  assert(capacity >= 0.0);
  util_.set(sim_.now(), 0.0);
  last_update_ = sim_.now();
}

FluidResource::~FluidResource() {
  if (completion_event_) sim_.cancel(completion_event_);
}

void FluidResource::set_capacity(double capacity) {
  assert(capacity >= 0.0);
  settle();
  capacity_ = capacity;
  recompute();
}

Task<> FluidResource::consume(double work, double max_rate) {
  assert(work >= 0.0 && max_rate >= 0.0);
  if (work <= 0.0) co_return;
  settle();
  jobs_.emplace_back(sim_, work, max_rate);
  auto it = std::prev(jobs_.end());
  recompute();
  // Work within kWorkEpsilon is done on arrival: recompute() has already
  // erased the job, `done` included, so there is nothing to await.
  if (work <= kWorkEpsilon) co_return;
  co_await it->done;
  // The completion handler erases the job before triggering `done`, so
  // nothing to clean up here.
}

void FluidResource::settle() {
  const SimTime now = sim_.now();
  const double dt = now - last_update_;
  if (dt > 0.0) {
    for (auto& j : jobs_) j.remaining = std::max(0.0, j.remaining - j.rate * dt);
  }
  last_update_ = now;
}

void FluidResource::recompute() {
  // Pop jobs that finished (remaining ~ 0) and trigger their events.
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->remaining <= kWorkEpsilon) {
      // trigger() hands the waiter's coroutine handle to the scheduler and
      // drops every reference to the Event, so erasing the job (and the
      // Event inside it) immediately afterwards is safe: the resumed
      // consume() coroutine never touches the job again.
      it->done.trigger();
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }

  // Water-fill capacity across the remaining jobs.
  double cap = capacity_;
  std::size_t unfrozen = jobs_.size();
  for (auto& j : jobs_) j.rate = -1.0;  // -1 = unfrozen
  // Iteratively freeze jobs whose cap is below the fair share.
  bool progress = true;
  while (unfrozen > 0 && progress) {
    progress = false;
    const double share = cap / static_cast<double>(unfrozen);
    for (auto& j : jobs_) {
      if (j.rate >= 0.0) continue;
      if (j.max_rate <= share) {
        j.rate = j.max_rate;
        cap -= j.rate;
        --unfrozen;
        progress = true;
      }
    }
    if (!progress) {
      // No caps bind: everyone gets the equal share.
      for (auto& j : jobs_) {
        if (j.rate < 0.0) j.rate = share;
      }
      unfrozen = 0;
    }
  }

  total_rate_ = 0.0;
  for (const auto& j : jobs_) total_rate_ += j.rate;
  util_.set(sim_.now(), capacity_ > 0 ? total_rate_ / capacity_ : 0.0);

  // Schedule the next completion.
  if (completion_event_) {
    sim_.cancel(completion_event_);
    completion_event_ = 0;
  }
  double horizon = std::numeric_limits<double>::infinity();
  for (const auto& j : jobs_) {
    if (j.rate > 0.0) horizon = std::min(horizon, j.remaining / j.rate);
  }
  if (std::isfinite(horizon)) {
    // Clamp to a delay the clock can actually resolve: a horizon below
    // the floating-point granularity of `now` would fire with zero time
    // advance and spin forever. Slightly overshooting just clamps the
    // finishing job's remaining work at zero.
    const double min_dt = std::max(1e-12, sim_.now() * 1e-12);
    horizon = std::max(horizon, min_dt);
    completion_event_ = sim_.schedule(horizon, [this] {
      completion_event_ = 0;
      settle();
      recompute();
    });
  }
}

}  // namespace memfss::sim
