// The client resilience kit shared by the simulated filesystem client
// (fs::HealthRegistry) and the real TCP client (netio::ResilientClient):
// one circuit breaker state machine and one retry backoff schedule.
//
// The breaker follows the classic three-state machine:
//
//   closed     -- requests flow; `failure_threshold` *consecutive*
//                 health faults (errc_health_fault) open it;
//   open       -- requests are rejected locally until `cooldown`
//                 elapses;
//   half-open  -- exactly one trial request is let through; success
//                 closes the breaker, failure re-opens it for another
//                 cooldown.
//
// Application-level answers (not_found, permission, ...) prove the
// server is alive and close the breaker like any success. Rejections a
// client synthesizes itself never feed back into the state machine.
//
// Time is passed in by the caller -- simulated seconds for the fs
// client, monotonic seconds for the TCP client -- so the state machine
// is deterministic and replays exactly under a fixed seed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/types.hpp"

namespace memfss {

enum class BreakerState : std::uint8_t { closed, open, half_open };

struct BreakerConfig {
  int failure_threshold = 0;  ///< consecutive faults to open; 0 = inert
  SimTime cooldown = 1.0;     ///< open -> half-open trial delay
};

class CircuitBreaker {
 public:
  /// Whether a request may be issued now. Performs the open -> half-open
  /// transition when the cooldown has elapsed; in half-open, admits a
  /// single trial until its outcome is recorded. A caller that takes the
  /// trial must record exactly one outcome for it, or the breaker stays
  /// half-open with the trial outstanding.
  bool allow(const BreakerConfig& cfg, SimTime now);

  /// Record a request outcome. `fault` per errc_health_fault. Returns
  /// true when this record transitioned the breaker to open.
  bool record(const BreakerConfig& cfg, bool fault, SimTime now);

  BreakerState state() const { return state_; }
  int consecutive_failures() const { return consecutive_; }
  /// When the breaker last opened (meaningful while open).
  SimTime opened_at() const { return opened_at_; }

 private:
  BreakerState state_ = BreakerState::closed;
  int consecutive_ = 0;
  SimTime opened_at_ = 0.0;
  bool trial_in_flight_ = false;
};

/// Delay before retry `n` (0-based): base * 2^n capped at `max`, then
/// stretched by (1 + 0.5 * u) so concurrent retries de-synchronize. The
/// caller supplies the jitter draw `u`, which fixes the spread: a draw
/// in [0, 1) only lengthens the delay, one in [-1, 1) centres it.
inline double backoff_delay(double base, double max, int n, double u) {
  return std::min(std::ldexp(base, n), max) * (1.0 + 0.5 * u);
}

}  // namespace memfss
