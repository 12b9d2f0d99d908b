#include "rt/tenant_registry.hpp"

#include <algorithm>

namespace memfss::rt {

TenantRegistry::TenantRegistry(std::size_t max_tenants) {
  slots_.resize(std::max<std::size_t>(max_tenants, 1));
  // Slot 0: the default tenant. Unlimited and top priority so code that
  // never heard of tenants behaves exactly as before QoS existed.
  (void)register_tenant(TenantConfig{});
}

Result<std::uint32_t> TenantRegistry::register_tenant(TenantConfig cfg) {
  if (cfg.priority > kTopPriority)
    return {Errc::invalid_argument, "priority out of range"};
  if (cfg.weight == 0) cfg.weight = 1;
  // A half-specified RS policy (k without m, or vice versa) is a config
  // mistake, not a storable mode; k + m must also fit GF(2^8)'s point
  // count.
  if ((cfg.rs.k > 0) != (cfg.rs.m > 0))
    return {Errc::invalid_argument, "rs policy needs both k and m"};
  if (cfg.rs.enabled() && cfg.rs.k + cfg.rs.m > 255)
    return {Errc::invalid_argument, "rs policy k+m exceeds 255"};
  if (cfg.name.empty())
    return {Errc::invalid_argument, "tenant name is empty"};
  std::lock_guard lk(register_mu_);
  const std::uint32_t id = count_.load(std::memory_order_relaxed);
  if (id >= slots_.size())
    return {Errc::invalid_argument, "tenant table full"};
  for (std::uint32_t i = 0; i < id; ++i)
    if (slots_[i]->cfg.name == cfg.name)
      return {Errc::invalid_argument, "tenant name already registered"};
  auto st = std::make_unique<State>();
  st->ops = TokenBucket(cfg.ops_per_s, cfg.ops_burst);
  st->bytes = TokenBucket(cfg.bytes_per_s, cfg.bytes_burst);
  st->unlimited = st->ops.unlimited() && st->bytes.unlimited();
  if (cfg.rs.enabled())
    st->rs = std::make_unique<const erasure::ReedSolomon>(cfg.rs.k, cfg.rs.m);
  st->cfg = std::move(cfg);
  slots_[id] = std::move(st);
  total_weight_.fetch_add(slots_[id]->cfg.weight, std::memory_order_release);
  count_.store(id + 1, std::memory_order_release);
  return id;
}

TenantRegistry::Admission TenantRegistry::admit(std::uint32_t id,
                                                Bytes payload_bytes,
                                                double now_s) {
  State& st = state(id);
  if (st.unlimited) return {};  // limits are fixed at registration
  std::lock_guard lk(st.mu);
  // Oversized payloads cost one full bucket rather than being
  // unadmittable; delay_until applies the same clamp.
  const double byte_cost =
      st.bytes.unlimited()
          ? 0.0
          : std::min(static_cast<double>(payload_bytes), st.bytes.burst());
  const double ops_delay = st.ops.delay_until(now_s, 1.0);
  const double bytes_delay =
      byte_cost > 0.0 ? st.bytes.delay_until(now_s, byte_cost) : 0.0;
  if (ops_delay > 0.0 || bytes_delay > 0.0)
    return {Errc::overloaded, std::max(ops_delay, bytes_delay)};
  st.ops.try_take(now_s, 1.0);
  if (byte_cost > 0.0) st.bytes.try_take(now_s, byte_cost);
  return {};
}

bool TenantRegistry::try_charge_memory(std::uint32_t id, Bytes n) {
  State& st = state(id);
  const Bytes quota = st.cfg.memory_quota;
  if (quota == 0) {
    st.resident.fetch_add(n, std::memory_order_relaxed);
    return true;
  }
  Bytes cur = st.resident.load(std::memory_order_relaxed);
  while (true) {
    if (cur + n > quota) return false;
    if (st.resident.compare_exchange_weak(cur, cur + n,
                                          std::memory_order_relaxed))
      return true;
  }
}

void TenantRegistry::release_memory(std::uint32_t id, Bytes n) {
  state(id).resident.fetch_sub(n, std::memory_order_relaxed);
}

Bytes TenantRegistry::total_resident() const {
  Bytes sum = 0;
  const std::uint32_t n = tenant_count();
  for (std::uint32_t i = 0; i < n; ++i)
    sum += slots_[i]->resident.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace memfss::rt
