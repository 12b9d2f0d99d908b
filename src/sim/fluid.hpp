// FluidResource: a shared-capacity resource with max-min fair allocation.
//
// Jobs arrive with an amount of work (e.g. core-seconds, bytes) and an
// optional per-job rate cap (e.g. a task that can use at most 4 cores, a
// flow capped by a container bandwidth limit). At any instant the resource
// water-fills its capacity across active jobs: every job gets an equal
// share except jobs whose cap is below the share, which get their cap and
// return the remainder to the pool.
//
// This one abstraction models per-node CPU (capacity = cores), memory
// bandwidth (bytes/s), and -- inside net::Fabric -- NIC links. Contention
// between MemFSS and tenant applications, which is what the paper
// measures, emerges from jobs of both sharing the same FluidResource.
#pragma once

#include <limits>
#include <list>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace memfss::sim {

class FluidResource {
 public:
  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

  FluidResource(Simulator& sim, double capacity, std::string name = {});
  ~FluidResource();
  FluidResource(const FluidResource&) = delete;
  FluidResource& operator=(const FluidResource&) = delete;

  /// Consume `work` units at a rate of at most `max_rate` units/s.
  /// Completes when the work has been processed. work >= 0.
  Task<> consume(double work, double max_rate = kUncapped);

  double capacity() const { return capacity_; }

  /// Change capacity at runtime (e.g. container cap tightened); active
  /// jobs are re-shared immediately.
  void set_capacity(double capacity);

  /// Sum of currently allocated rates.
  double allocated_rate() const { return total_rate_; }

  /// Active job count.
  std::size_t active_jobs() const { return jobs_.size(); }

  /// Time-weighted utilization (allocated/capacity) since construction.
  double average_utilization(SimTime t_end) const {
    return util_.average(t_end);
  }
  double peak_utilization() const { return util_.peak(); }

  /// Utilization integral for window averages (see TimeWeighted).
  double utilization_integral(SimTime t) const {
    return util_.integral_until(t);
  }

 private:
  struct Job {
    double remaining;
    double max_rate;
    double rate = 0.0;
    Event done;
    Job(Simulator& sim, double rem, double cap)
        : remaining(rem), max_rate(cap), done(sim) {}
  };

  void settle();     ///< charge elapsed progress to all jobs
  void recompute();  ///< water-fill rates + reschedule completion

  Simulator& sim_;
  double capacity_;
  std::string name_;
  std::list<Job> jobs_;
  double total_rate_ = 0.0;
  SimTime last_update_ = 0.0;
  EventId completion_event_ = 0;
  TimeWeighted util_;
};

}  // namespace memfss::sim
