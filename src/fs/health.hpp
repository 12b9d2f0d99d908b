// Per-server health tracking for the client path (partition tolerance).
//
// One CircuitBreaker (common/resilience.hpp) per participating node,
// shared by every Client of the filesystem (clients are transient
// by-value handles; the registry lives in the FileSystem). Everything is
// driven by simulated time passed in by the caller, so breaker decisions
// replay exactly under a fixed seed.
#pragma once

#include <string_view>
#include <unordered_map>

#include "common/resilience.hpp"
#include "common/result.hpp"

namespace memfss::obs {
struct Observability;
}

namespace memfss::fs {

/// Jitter draw in [0, 1) for the fs client's retry backoff. It derives
/// from (key, attempt) -- not from a shared RNG -- so retry timing is a
/// pure function of the failure pattern and runs stay seed-reproducible
/// while concurrent retries on different stripes still de-synchronize.
double backoff_draw(std::string_view key, int attempt);

/// NodeId -> CircuitBreaker map plus aggregate counters. With a zero
/// failure_threshold every breaker is inert, so the registry is too.
class HealthRegistry {
 public:
  HealthRegistry(BreakerConfig cfg, obs::Observability* obs)
      : cfg_(cfg), obs_(obs) {}

  bool enabled() const { return cfg_.failure_threshold > 0; }
  const BreakerConfig& config() const { return cfg_; }
  void set_config(BreakerConfig cfg) { cfg_ = cfg; }

  /// Whether a request to `n` may be issued now.
  bool allow(NodeId n, SimTime now);

  /// Record the outcome of a request to `n` that was actually issued.
  void record(NodeId n, Errc code, SimTime now);

  BreakerState state(NodeId n) const;

  std::size_t opens() const { return opens_; }       ///< closed/half -> open

  /// Drop all breaker state (admin reset between experiment repetitions).
  void reset();

 private:
  BreakerConfig cfg_;
  obs::Observability* obs_;
  std::unordered_map<NodeId, CircuitBreaker> breakers_;
  std::size_t opens_ = 0;
};

}  // namespace memfss::fs
