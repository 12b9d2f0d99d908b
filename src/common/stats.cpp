#include "common/stats.hpp"

#include <algorithm>
#include <cassert>

namespace memfss {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

void TimeWeighted::set(SimTime t, double value) {
  if (!started_) {
    started_ = true;
    t0_ = last_t_ = t;
  } else {
    assert(t >= last_t_);
    integral_ += value_ * (t - last_t_);
    last_t_ = t;
  }
  value_ = value;
  peak_ = std::max(peak_, value);
}

double TimeWeighted::average(SimTime t_end) const {
  if (!started_ || t_end <= t0_) return 0.0;
  const double tail = value_ * std::max(0.0, t_end - last_t_);
  return (integral_ + tail) / (t_end - t0_);
}

}  // namespace memfss
