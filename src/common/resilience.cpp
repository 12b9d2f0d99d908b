#include "common/resilience.hpp"

namespace memfss {

bool CircuitBreaker::allow(const BreakerConfig& cfg, SimTime now) {
  if (state_ == BreakerState::closed) return true;
  if (state_ == BreakerState::open) {
    if (now - opened_at_ < cfg.cooldown) return false;
    state_ = BreakerState::half_open;
    trial_in_flight_ = false;
  }
  // Half-open: a single trial probes the server; everyone else keeps
  // getting rejected until its outcome is recorded.
  if (trial_in_flight_) return false;
  trial_in_flight_ = true;
  return true;
}

bool CircuitBreaker::record(const BreakerConfig& cfg, bool fault,
                            SimTime now) {
  // A zero threshold makes the breaker inert: it never leaves closed, so
  // default-configured clients behave (and trace) exactly as if it did
  // not exist, and no streak carries over into a later threshold.
  if (cfg.failure_threshold <= 0) return false;
  if (!fault) {
    state_ = BreakerState::closed;
    consecutive_ = 0;
    trial_in_flight_ = false;
    return false;
  }
  ++consecutive_;
  trial_in_flight_ = false;
  if (state_ == BreakerState::half_open ||
      (state_ == BreakerState::closed &&
       consecutive_ >= cfg.failure_threshold)) {
    state_ = BreakerState::open;
    opened_at_ = now;
    return true;
  }
  // Already open: a straggler outcome from before the trip; the cooldown
  // clock is not extended.
  return false;
}

}  // namespace memfss
