// ShardedStore: the concurrent deployment of kvstore::Store (DESIGN.md
// §11). Keys are partitioned over N single-threaded Store shards by the
// same FNV-1a digest the placement layer uses; each shard is guarded by
// its own mutex, and a global memory cap is enforced across shards with
// an atomic reserve-before-insert / release-after-remove protocol, so
// the aggregate `used()` never exceeds `capacity()` at any instant even
// while shards mutate concurrently.
//
// get() hands out a share of the resident bytes (kvstore::Blob), taken
// under the shard mutex; an overwrite never writes bytes a share can
// see. read() does not even take a share: a callback sees the resident
// value under the shard mutex (the EC read path gathers siblings this
// way).
//
// The shards hold all the state: the aggregate gate and the per-tenant
// quotas mirror the Store::Delta each shard reports (quote_put before a
// put, the removal's Delta after del/evict/clear_shard), and a key's
// tenant is the Store entry's owner tag -- no map shadows the shards.
//
// Lock order: at most one shard mutex is ever held at a time and the
// aggregate accounting is a lock-free atomic, so there is no lock
// ordering to get wrong and no deadlock surface. Whole-store scans
// (key_count(), stats()) lock shards one at a time and are therefore
// only instant-consistent per shard, which is all their callers need.
//
// Every mutating operation is assigned a per-shard serialization index
// (`seq`, incremented under the shard mutex). Since a key lives on
// exactly one shard, sorting one key's completed operations by seq
// recovers the real execution order -- the linearizability test replays
// that order against a sequential Store model.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "kvstore/blob.hpp"
#include "kvstore/store.hpp"

namespace memfss::rt {

class TenantRegistry;

class ShardedStore {
 public:
  struct Options {
    std::size_t shards = 8;          ///< number of Store partitions (>= 1)
    Bytes capacity = 64 * units::MiB;  ///< aggregate memory cap
    std::string auth_token;          ///< required by every op (empty = off)
    /// When set, every resident byte is also charged to the owning
    /// tenant (the Store entry's owner tag, which removals report
    /// back): puts charge-before-insert against the tenant's memory
    /// quota, removals release-after-remove. Tenant charges happen
    /// before the aggregate reservation and releases after the
    /// aggregate release, so sum-over-tenants >= used() at every
    /// instant and equals it at quiescence. nullptr = no per-tenant
    /// accounting (tenant args are ignored).
    TenantRegistry* tenants = nullptr;
  };

  explicit ShardedStore(Options opt);
  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  Bytes capacity() const { return capacity_; }

  /// Aggregate bytes accounted across all shards (atomic; includes
  /// reservations of puts currently in flight).
  Bytes used() const { return used_.load(std::memory_order_relaxed); }
  Bytes available() const { return capacity_ - used(); }

  /// Which shard owns `key`: FNV-1a digest mod shard count -- the same
  /// digest family the placement layer uses (hash::key_digest).
  std::size_t shard_of(std::string_view key) const;

  /// Validate a token against the one the store was built with, without
  /// touching any shard (the AUTH verb); a refusal counts in
  /// stats().auth_failures.
  Status check_token(std::string_view token) const;

  // Key operations mirror kvstore::Store but enforce the aggregate cap.
  // `seq` (optional) receives the per-shard serialization index assigned
  // to this operation, including failed ones. `tenant` attributes the
  // key's resident bytes when a TenantRegistry is attached: a put that
  // would push the tenant past its memory quota fails with
  // out_of_memory before touching the aggregate gate. Removals (del,
  // evict, clear_shard) always release to the owner the entry was tagged
  // with, so they carry no tenant argument.
  Status put(std::string_view token, std::string_view key,
             kvstore::Blob value, std::uint64_t* seq = nullptr,
             std::uint32_t tenant = 0);
  Result<kvstore::Blob> get(std::string_view token, std::string_view key,
                            std::uint64_t* seq = nullptr);
  /// get() without the share: on a hit `fn(const kvstore::Blob&)` runs
  /// under the shard mutex and sees the resident value in place (the
  /// EC read path gathers siblings straight out of it). Same auth,
  /// closed-shard and not_found errors, stats and `seq` as get(). `fn`
  /// must not call back into this store, and the reference must not
  /// outlive the call.
  template <class Fn>
  Status read(std::string_view token, std::string_view key, Fn&& fn,
              std::uint64_t* seq = nullptr) {
    auto& sh = shard(key);
    std::lock_guard lk(sh.mu);
    if (seq) *seq = ++sh.seq;
    return sh.store.read(token, key, std::forward<Fn>(fn));
  }
  Status del(std::string_view token, std::string_view key,
             std::uint64_t* seq = nullptr);
  Result<bool> exists(std::string_view token, std::string_view key) const;

  /// Remove one key regardless of auth/closed state and release its
  /// accounting (the eviction path).
  std::optional<kvstore::Blob> evict(std::string_view key);

  /// Stop serving one shard: later operations on its keys fail with
  /// `unavailable`. Data stays drainable via evict().
  void close_shard(std::size_t shard);
  bool shard_closed(std::size_t shard) const;

  /// Drop one shard's keys; returns the bytes released.
  Bytes clear_shard(std::size_t shard);

  // Introspection (locks the shard(s) in question).
  Bytes shard_used(std::size_t shard) const;
  /// Walks the shard's keys and re-sums payload + overhead -- the oracle
  /// the stress test compares shard_used() against after quiesce.
  Bytes shard_recomputed_used(std::size_t shard) const;
  std::size_t key_count() const;
  kvstore::StoreStats stats() const;  ///< summed over shards

 private:
  struct Shard {
    mutable std::mutex mu;
    kvstore::Store store;
    std::uint64_t seq = 0;  ///< serialization index, guarded by mu

    Shard(Bytes capacity, std::string token)
        : store(capacity, std::move(token)) {}
  };

  Shard& shard(std::string_view key) { return *shards_[shard_of(key)]; }

  /// CAS-reserve `n` bytes against the aggregate cap; false if it would
  /// overflow. Reservations are taken *before* bytes land in a shard so
  /// `used() <= capacity()` holds at every instant.
  bool try_reserve(Bytes n);
  void release(Bytes n) { used_.fetch_sub(n, std::memory_order_relaxed); }
  /// Return a removed entry's charge: aggregate first, then its owner
  /// tenant, so sum-over-tenants >= used() holds at every instant.
  void release_held(const kvstore::Store::Delta& d);

  Bytes capacity_;
  std::string token_;        ///< the AUTH token every shard was built with
  TenantRegistry* tenants_;  ///< optional per-tenant byte accounting
  std::atomic<Bytes> used_{0};
  mutable std::atomic<std::uint64_t> auth_refusals_{0};  ///< by check_token
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace memfss::rt
