// Statistics helpers: running summaries and time-weighted utilization
// accumulators (used by the experiment harness to report the CPU% /
// bandwidth% numbers the paper plots). Latency histograms live in
// obs/histogram.hpp.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/types.hpp"

namespace memfss {

/// Streaming summary: count / mean / variance (Welford) / min / max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1); 0 if n < 2
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Time-weighted average of a piecewise-constant signal.
///
/// Feed (time, value) level changes; `average(t_end)` integrates the signal
/// from the first sample to t_end. This is how per-node CPU / NIC
/// utilization is aggregated into the single numbers Fig. 2 reports.
class TimeWeighted {
 public:
  void set(SimTime t, double value);
  double average(SimTime t_end) const;
  double current() const { return value_; }
  double peak() const { return peak_; }

  /// Integral of the signal from the first sample to `t`. Callers compute
  /// window averages as (I(t1) - I(t0)) / (t1 - t0).
  double integral_until(SimTime t) const {
    return integral_ + value_ * std::max(0.0, t - last_t_);
  }

 private:
  bool started_ = false;
  SimTime t0_ = 0.0;
  SimTime last_t_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;
  double peak_ = 0.0;
};

}  // namespace memfss
