// In-memory key-value store -- the Redis stand-in (paper §III-D).
//
// Pure data structure: no simulation dependencies, usable standalone (the
// quickstart example runs one in-process). Features mirrored from the
// paper's Redis usage:
//   - byte-blob values with memory-cap accounting (container memory limit,
//     §III-F): puts beyond the cap fail with out_of_memory;
//   - AUTH: operations carry a token checked against the store's;
//   - eviction/evacuation: close() flips the store to `unavailable` and
//     the owner drains keys for migration.
//
// Store is the one byte-capped map in the tree and charge() the one
// per-key charge rule: the cold tier (kvstore::ColdTier) is a Store, and
// every mutation reports the bytes it charged and released (Delta), so
// owners that mirror the accounting -- the node MemoryPool in
// kvstore::Server, the aggregate gate and per-tenant quotas in
// rt::ShardedStore -- never re-derive it. Each entry carries an owner
// tag (0 unless the caller sets one) that removals report back.
//
// A single Store instance is not thread-safe and performs no locking:
// in the simulator everything runs on one logical thread. The concurrent
// deployment is rt::ShardedStore (src/rt/sharded_store.hpp), which
// partitions keys over many Store shards, one mutex each, with atomic
// aggregate accounting -- see DESIGN.md §11 for the concurrency model.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "kvstore/blob.hpp"

namespace memfss::kvstore {

struct StoreStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t dels = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t auth_failures = 0;
  Bytes bytes_in = 0;
  Bytes bytes_out = 0;
};

class Store {
 public:
  /// What one mutation did to the accounting: the bytes charged for the
  /// value it wrote, the bytes released for the value it replaced or
  /// removed (0 = there was none), and that value's owner tag.
  struct Delta {
    Bytes charged = 0;
    Bytes released = 0;
    std::uint32_t prev_owner = 0;
  };

  /// Bytes of bookkeeping charged per key in addition to the payload.
  static constexpr Bytes kPerKeyOverhead = 64;
  /// The bytes a value of `payload` bytes is charged while resident.
  static constexpr Bytes charge(Bytes payload) {
    return payload + kPerKeyOverhead;
  }

  /// `capacity`: memory cap in bytes. `auth_token`: required by every
  /// operation (empty disables auth, like a Redis with no requirepass).
  Store(Bytes capacity, std::string auth_token = {});

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  Bytes available() const { return capacity_ - used_; }
  std::size_t key_count() const { return map_.size(); }
  const StoreStats& stats() const { return stats_; }
  bool closed() const { return closed_; }

  /// Store/overwrite a value tagged with `owner`. Fails with
  /// out_of_memory past the cap and permission on a bad token. A
  /// same-size overwrite of a materialized value by a materialized value
  /// copies the bytes into the resident buffer instead of replacing it
  /// when the store holds the buffer's only share
  /// (Blob::overwrite_same_size), so a rewrite on another thread never
  /// frees the buffer into one malloc arena and allocates its successor
  /// in another (DESIGN.md §11); a resident someone else still shares is
  /// replaced, and the sharer keeps the old bytes. The charge is per
  /// key, whoever else shares the bytes. On success `*delta` (if given)
  /// says what the put charged and released.
  Status put(std::string_view token, std::string_view key, Blob value,
             std::uint32_t owner = 0, Delta* delta = nullptr);

  /// The Delta a successful put of a `size`-byte value at `key` would
  /// report, without writing (for owners that charge before the insert).
  Delta quote_put(std::string_view key, Bytes size) const;

  /// Fetch a value: a share of the resident bytes, not a copy.
  Result<Blob> get(std::string_view token, std::string_view key);

  /// get() without taking a share: on a hit `fn(const Blob&)` sees the
  /// resident value in place, valid only for the call. Same auth,
  /// closed-store and not_found errors and the same stats as get().
  template <class Fn>
  Status read(std::string_view token, std::string_view key, Fn&& fn) {
    auto hit = lookup(token, key);
    if (!hit.ok()) return hit.error();
    fn(*hit.value());
    return {};
  }

  /// Presence check (no bytes_out accounting).
  Result<bool> exists(std::string_view token, std::string_view key) const;

  /// Delete; not_found if absent. `*delta` (if given) reports the release.
  Status del(std::string_view token, std::string_view key,
             Delta* delta = nullptr);

  /// Size of a stored value without fetching it.
  Result<Bytes> value_size(std::string_view token,
                           std::string_view key) const;

  /// All keys (for evacuation / rebalance scans).
  std::vector<std::string> keys() const;

  /// Stop serving: every later operation fails with `unavailable`.
  /// Stored data remains readable via drain().
  void close() { closed_ = true; }

  /// Remove and return one key's value regardless of closed state
  /// (the evacuation path uses this after close()). `*delta` (if given)
  /// reports the release.
  std::optional<Blob> drain(std::string_view key, Delta* delta = nullptr);

  /// Inverse of drain(): put a value back (owner tag 0), bypassing auth,
  /// closed state and stats. Owner-side only -- the evacuation path uses
  /// it to undo a drain whose migration failed (e.g. destination
  /// unreachable), so the data survives until a later retry or repair.
  Status restore(std::string_view key, Blob value, Delta* delta = nullptr);

  /// Drop everything; returns the bytes that were accounted (payloads +
  /// per-key overhead) so owners can release external accounting.
  Bytes clear();

  /// Zero-cost inspection (scrubber internals); nullptr if absent.
  const Blob* peek(std::string_view key) const;

  /// Test hook: damage a stored value so scrub/fault-injection tests have
  /// something to detect.
  Status corrupt_for_test(std::string_view key);

  // --- access heat (tiered memory, DESIGN.md §16) ---------------------------
  //
  // Sampled recency+frequency counters: each access adds kHeatQuantum and
  // the counter halves per elapsed decay epoch (a right shift -- exact
  // integer math, so replays are bit-identical). Epochs are supplied by
  // the caller (the Server derives them from sim time), keeping the store
  // free of simulation dependencies. O(1) per access.

  /// Record one access to `key` at decay epoch `epoch`. Epochs that run
  /// backwards are clamped (no underflow); the counter saturates at
  /// kHeatCap (no overflow).
  void touch_heat(std::string_view key, std::uint64_t epoch);

  /// Decayed heat of `key` as observed at `epoch`; 0 if never touched.
  std::uint64_t heat_of(std::string_view key, std::uint64_t epoch) const;

  /// Every resident key ordered coldest-first at `epoch`: ascending
  /// (decayed heat, last-touch sequence, key) -- a deterministic total
  /// order. Demotion victims are always a prefix of this list.
  std::vector<std::string> keys_by_heat(std::uint64_t epoch) const;

  /// Heat added per access; the halving decay needs headroom below the
  /// quantum to distinguish "accessed long ago" from "never accessed".
  static constexpr std::uint64_t kHeatQuantum = 256;
  /// Saturation ceiling (~2^40): far above any achievable access rate,
  /// low enough that counter + quantum can never wrap.
  static constexpr std::uint64_t kHeatCap = std::uint64_t{1} << 40;

 private:
  struct Entry {
    Blob blob;
    std::uint32_t owner = 0;
  };
  using Map = std::unordered_map<std::string, Entry>;

  Status check(std::string_view token) const;
  /// get()'s checks and stats; the resident value on a hit.
  Result<const Blob*> lookup(std::string_view token, std::string_view key);
  /// The Delta of writing a `size`-byte value at `it` (end() = new key).
  Delta delta_at(Map::const_iterator it, Bytes size) const;
  /// put()'s and restore()'s core: charge against the cap, then write,
  /// overwriting in place when the resident buffer can be reused.
  Status install(std::string_view key, Blob value, std::uint32_t owner,
                 Delta* delta);
  /// del()'s and drain()'s core: release the entry and return its value.
  Blob erase(Map::iterator it, Delta* delta);

  struct HeatEntry {
    std::uint64_t counter = 0;  ///< decayed-to-`epoch` heat value
    std::uint64_t epoch = 0;    ///< epoch the counter was last folded at
    std::uint64_t seq = 0;      ///< global access sequence (recency tiebreak)
  };
  /// `counter` halved once per epoch between `from` and `to` (shifts of
  /// 64+ flush to zero -- extreme sim-time deltas cannot overflow the
  /// shift count into UB).
  static std::uint64_t decay_heat(std::uint64_t counter, std::uint64_t from,
                                  std::uint64_t to);

  Bytes capacity_;
  std::string token_;
  bool closed_ = false;
  Bytes used_ = 0;
  Map map_;
  std::unordered_map<std::string, HeatEntry> heat_;
  std::uint64_t heat_seq_ = 0;
  mutable StoreStats stats_;
};

}  // namespace memfss::kvstore
