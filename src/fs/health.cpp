#include "fs/health.hpp"

#include "hash/hashes.hpp"
#include "obs/obs.hpp"

namespace memfss::fs {

double backoff_draw(std::string_view key, int attempt) {
  return static_cast<double>(
             hash::mix64(hash::key_digest(key),
                         0x9e3779b9u + static_cast<std::uint64_t>(attempt)) >>
             11) *
         0x1.0p-53;
}

bool HealthRegistry::allow(NodeId n, SimTime now) {
  return breakers_[n].allow(cfg_, now);
}

void HealthRegistry::record(NodeId n, Errc code, SimTime now) {
  if (breakers_[n].record(cfg_, errc_health_fault(code), now)) {
    ++opens_;
    if (obs_) {
      obs_->metrics.counter("fs.breaker.opens").inc();
      if (obs_->tracer.enabled(obs::Component::fs))
        obs_->tracer.instant(obs::Component::fs, n, "fs.breaker.open",
                             std::string(errc_name(code)));
    }
  }
}

BreakerState HealthRegistry::state(NodeId n) const {
  auto it = breakers_.find(n);
  return it == breakers_.end() ? BreakerState::closed : it->second.state();
}

void HealthRegistry::reset() {
  breakers_.clear();
  opens_ = 0;
}

}  // namespace memfss::fs
