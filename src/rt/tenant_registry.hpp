// TenantRegistry: identity, limits, and live accounting for every
// tenant sharing the rt runtime (DESIGN.md §12).
//
// A tenant is a dense integer id (slot) handed out at registration and
// carried on every Op. Slot 0 is the pre-registered *default* tenant --
// unlimited, top priority, weight 1 -- so single-tenant callers keep
// working unchanged. Per tenant the registry holds:
//
//   - static policy: priority (0 = best-effort, shed first; kTopPriority
//     = never pressure-shed), DWRR weight for the thread pool, ops/s and
//     payload-bytes/s token buckets, and a resident-memory quota;
//   - live accounting: an atomic resident-byte counter maintained
//     exactly by rt::ShardedStore (charge-before-insert /
//     release-after-remove, mirroring the aggregate cap protocol), so
//     sum-over-tenants >= aggregate used() at every instant and equals
//     it at quiescence;
//   - serving counters (ops, put bytes, overloaded and rejected sheds):
//     relaxed atomics bumped by slot id, exported under the tenant's
//     unique name as rt.tenant.<name>.<metric> only at snapshot time.
//
// Registration is mutex-guarded and publication is release/acquire on
// the slot count; the slot table never reallocates (fixed capacity at
// construction), so readers index it lock-free. admit() serializes per
// limited tenant -- contention is confined to one tenant's own
// submitters, which is exactly the isolation boundary -- and returns at
// once, with no lock, for a tenant with neither rate limit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "erasure/reed_solomon.hpp"
#include "rt/token_bucket.hpp"

namespace memfss::rt {

/// Priorities run 0 (best-effort, first to shed) through kTopPriority
/// (never shed by pressure -- only by its own rate limits).
inline constexpr std::uint32_t kTopPriority = 7;

/// Per-tenant Reed-Solomon redundancy policy (DESIGN.md §14): puts by a
/// tenant with an enabled policy are split into k data + m parity
/// sibling keys in the sharded store and decoded (reconstructing
/// missing shards) on get. Disabled (the default) = plain storage.
struct RsPolicy {
  std::size_t k = 0;  ///< data shards (>= 1 to enable)
  std::size_t m = 0;  ///< parity shards (>= 1 to enable; k + m <= 255)
  bool enabled() const { return k >= 1 && m >= 1; }
};

/// Per-tenant serving counters, in kTenantCounterNames order.
enum class TenantCounter : std::size_t { ops, bytes, overloaded, rejected };
inline constexpr std::array<std::string_view, 4> kTenantCounterNames{
    "ops", "bytes", "overloaded", "rejected"};

struct TenantConfig {
  std::string name = "default";
  std::uint32_t priority = kTopPriority;
  std::uint32_t weight = 1;    ///< deficit-round-robin share (>= 1)
  double ops_per_s = 0.0;      ///< admission rate; <= 0 = unlimited
  double ops_burst = 0.0;      ///< bucket depth; <= 0 = max(rate, 1)
  double bytes_per_s = 0.0;    ///< payload-byte rate; <= 0 = unlimited
  double bytes_burst = 0.0;
  Bytes memory_quota = 0;      ///< resident-byte cap; 0 = unlimited
  RsPolicy rs{};               ///< erasure-coded puts; default = off
};

class TenantRegistry {
 public:
  struct Admission {
    Errc code = Errc::ok;        ///< ok or overloaded
    double retry_after_s = 0.0;  ///< when overloaded: earliest useful retry
  };

  explicit TenantRegistry(std::size_t max_tenants = 64);
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Add a tenant; returns its slot id. Fails with invalid_argument
  /// when the table is full, the name is empty or already registered,
  /// or the priority is out of range.
  Result<std::uint32_t> register_tenant(TenantConfig cfg);

  std::uint32_t tenant_count() const {
    return count_.load(std::memory_order_acquire);
  }
  bool valid(std::uint32_t id) const { return id < tenant_count(); }

  const std::string& name(std::uint32_t id) const { return state(id).cfg.name; }
  std::uint32_t priority(std::uint32_t id) const {
    return state(id).cfg.priority;
  }
  std::uint32_t weight(std::uint32_t id) const { return state(id).cfg.weight; }
  Bytes memory_quota(std::uint32_t id) const {
    return state(id).cfg.memory_quota;
  }
  /// The tenant's Reed-Solomon coder, built once at registration from
  /// cfg.rs; nullptr when the tenant stores plainly. The coder is
  /// immutable and the slot never reallocates, so workers read it
  /// lock-free.
  const erasure::ReedSolomon* rs_coder(std::uint32_t id) const {
    return state(id).rs.get();
  }
  /// Sum of registered weights (for sizing per-tenant queue shares).
  std::uint64_t total_weight() const {
    return total_weight_.load(std::memory_order_acquire);
  }

  /// Rate admission for one op moving `payload_bytes` of value payload
  /// at time `now_s`: both the ops/s and bytes/s buckets must cover it
  /// or the op is shed with Errc::overloaded and a retry-after hint
  /// (the later of the two buckets' refill horizons). Payloads larger
  /// than the byte bucket's burst cost one full bucket, so oversized
  /// ops drain the bucket instead of being unadmittable forever. A
  /// tenant with neither limit is admitted at once, with no lock.
  Admission admit(std::uint32_t id, Bytes payload_bytes, double now_s);

  // -- exact resident-memory accounting (called by ShardedStore) ------
  /// Reserve `n` resident bytes against the tenant's quota (CAS; plain
  /// add when unlimited). False = quota would be exceeded.
  bool try_charge_memory(std::uint32_t id, Bytes n);
  void release_memory(std::uint32_t id, Bytes n);
  Bytes memory_used(std::uint32_t id) const {
    return state(id).resident.load(std::memory_order_relaxed);
  }
  /// Sum of every tenant's resident bytes (the accounting invariant's
  /// left-hand side; >= ShardedStore::used() at every instant).
  Bytes total_resident() const;

  void count(std::uint32_t id, TenantCounter c, std::uint64_t delta = 1) {
    state(id).counters[static_cast<std::size_t>(c)].fetch_add(
        delta, std::memory_order_relaxed);
  }
  std::uint64_t counter(std::uint32_t id, TenantCounter c) const {
    return state(id).counters[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

 private:
  struct State {
    TenantConfig cfg;
    std::mutex mu;  ///< guards the two buckets
    TokenBucket ops;
    TokenBucket bytes;
    bool unlimited = false;  ///< neither bucket limits: admit() takes no lock
    std::atomic<Bytes> resident{0};
    std::unique_ptr<const erasure::ReedSolomon> rs;  ///< set iff cfg.rs on
    /// Off the admit line: workers bump ops/bytes on every op.
    alignas(64) std::array<std::atomic<std::uint64_t>,
                           kTenantCounterNames.size()> counters{};
  };

  const State& state(std::uint32_t id) const { return *slots_[id]; }
  State& state(std::uint32_t id) { return *slots_[id]; }

  std::mutex register_mu_;
  std::atomic<std::uint32_t> count_{0};
  std::atomic<std::uint64_t> total_weight_{0};
  std::vector<std::unique_ptr<State>> slots_;  ///< fixed size, no realloc
};

}  // namespace memfss::rt
