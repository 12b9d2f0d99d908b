#include "rt/sharded_store.hpp"

#include <utility>

#include "hash/hashes.hpp"
#include "rt/tenant_registry.hpp"

namespace memfss::rt {

ShardedStore::ShardedStore(Options opt)
    : capacity_(opt.capacity),
      token_(opt.auth_token),
      tenants_(opt.tenants) {
  const std::size_t n = opt.shards ? opt.shards : 1;
  shards_.reserve(n);
  // Each shard's own Store is created with the *aggregate* cap so the
  // per-shard check never binds; admission is decided solely by the
  // atomic aggregate gate, which is strictly tighter.
  for (std::size_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>(opt.capacity, opt.auth_token));
}

std::size_t ShardedStore::shard_of(std::string_view key) const {
  return static_cast<std::size_t>(hash::key_digest(key) % shards_.size());
}

Status ShardedStore::check_token(std::string_view token) const {
  if (token_.empty() || token == token_) return {};
  auth_refusals_.fetch_add(1, std::memory_order_relaxed);
  return {Errc::permission, "bad auth token"};
}

bool ShardedStore::try_reserve(Bytes n) {
  Bytes cur = used_.load(std::memory_order_relaxed);
  while (true) {
    if (cur + n > capacity_) return false;
    if (used_.compare_exchange_weak(cur, cur + n, std::memory_order_relaxed))
      return true;
  }
}

Status ShardedStore::put(std::string_view token, std::string_view key,
                         kvstore::Blob value, std::uint64_t* seq,
                         std::uint32_t tenant) {
  auto& sh = shard(key);
  std::lock_guard lk(sh.mu);
  if (seq) *seq = ++sh.seq;
  const auto d = sh.store.quote_put(key, value.size());
  const Bytes grow = d.charged > d.released ? d.charged - d.released : 0;
  const Bytes shrink = d.released > d.charged ? d.released - d.charged : 0;

  // Per-tenant quota gate first (charge-before-insert, like the
  // aggregate gate below): a same-owner overwrite charges only the
  // growth; a fresh key or cross-tenant overwrite charges the full
  // incoming size (the old owner's bytes are released after success).
  const bool same_owner = d.released > 0 && d.prev_owner == tenant;
  const Bytes charged = !tenants_ ? 0 : same_owner ? grow : d.charged;
  if (charged > 0 && !tenants_->try_charge_memory(tenant, charged))
    return {Errc::out_of_memory, "tenant memory quota exceeded"};
  if (grow > 0 && !try_reserve(grow)) {
    if (charged > 0) tenants_->release_memory(tenant, charged);
    return {Errc::out_of_memory, "aggregate capacity exceeded"};
  }
  auto st = sh.store.put(token, key, std::move(value), tenant);
  if (!st.ok()) {
    if (grow > 0) release(grow);
    if (charged > 0) tenants_->release_memory(tenant, charged);
    return st;
  }
  // Overwrite by a smaller value: the shard shrank, return the slack
  // (aggregate before per-tenant, preserving sum-over-tenants >= used).
  if (shrink > 0) release(shrink);
  if (tenants_) {
    if (same_owner) {
      if (shrink > 0) tenants_->release_memory(tenant, shrink);
    } else if (d.released > 0) {
      tenants_->release_memory(d.prev_owner, d.released);
    }
  }
  return st;
}

Result<kvstore::Blob> ShardedStore::get(std::string_view token,
                                        std::string_view key,
                                        std::uint64_t* seq) {
  auto& sh = shard(key);
  std::lock_guard lk(sh.mu);
  if (seq) *seq = ++sh.seq;
  return sh.store.get(token, key);
}

Status ShardedStore::del(std::string_view token, std::string_view key,
                         std::uint64_t* seq) {
  auto& sh = shard(key);
  std::lock_guard lk(sh.mu);
  if (seq) *seq = ++sh.seq;
  kvstore::Store::Delta d;
  auto st = sh.store.del(token, key, &d);
  if (st.ok()) release_held(d);
  return st;
}

Result<bool> ShardedStore::exists(std::string_view token,
                                  std::string_view key) const {
  auto& sh = *shards_[shard_of(key)];
  std::lock_guard lk(sh.mu);
  return sh.store.exists(token, key);
}

std::optional<kvstore::Blob> ShardedStore::evict(std::string_view key) {
  auto& sh = shard(key);
  std::lock_guard lk(sh.mu);
  ++sh.seq;
  kvstore::Store::Delta d;
  auto b = sh.store.drain(key, &d);
  if (b) release_held(d);
  return b;
}

void ShardedStore::close_shard(std::size_t shard) {
  auto& sh = *shards_.at(shard);
  std::lock_guard lk(sh.mu);
  sh.store.close();
}

bool ShardedStore::shard_closed(std::size_t shard) const {
  auto& sh = *shards_.at(shard);
  std::lock_guard lk(sh.mu);
  return sh.store.closed();
}

Bytes ShardedStore::clear_shard(std::size_t shard) {
  auto& sh = *shards_.at(shard);
  std::lock_guard lk(sh.mu);
  ++sh.seq;
  Bytes freed = 0;
  for (const auto& key : sh.store.keys()) {
    kvstore::Store::Delta d;
    (void)sh.store.drain(key, &d);
    release_held(d);
    freed += d.released;
  }
  return freed;
}

void ShardedStore::release_held(const kvstore::Store::Delta& d) {
  release(d.released);
  if (tenants_) tenants_->release_memory(d.prev_owner, d.released);
}

Bytes ShardedStore::shard_used(std::size_t shard) const {
  auto& sh = *shards_.at(shard);
  std::lock_guard lk(sh.mu);
  return sh.store.used();
}

Bytes ShardedStore::shard_recomputed_used(std::size_t shard) const {
  auto& sh = *shards_.at(shard);
  std::lock_guard lk(sh.mu);
  Bytes sum = 0;
  for (const auto& key : sh.store.keys())
    sum += sh.store.peek(key)->size() + kvstore::Store::kPerKeyOverhead;
  return sum;
}

std::size_t ShardedStore::key_count() const {
  std::size_t n = 0;
  for (const auto& shp : shards_) {
    std::lock_guard lk(shp->mu);
    n += shp->store.key_count();
  }
  return n;
}

kvstore::StoreStats ShardedStore::stats() const {
  kvstore::StoreStats total;
  total.auth_failures = auth_refusals_.load(std::memory_order_relaxed);
  for (const auto& shp : shards_) {
    std::lock_guard lk(shp->mu);
    const auto& s = shp->store.stats();
    total.puts += s.puts;
    total.gets += s.gets;
    total.dels += s.dels;
    total.hits += s.hits;
    total.misses += s.misses;
    total.auth_failures += s.auth_failures;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
  }
  return total;
}

}  // namespace memfss::rt
