#include "rt/sharded_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_recycler.hpp"
#include "common/rng.hpp"
#include "hash/hashes.hpp"

namespace memfss::rt {
namespace {

kvstore::Blob bytes_blob(std::string_view s) {
  return kvstore::Blob::materialized(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

constexpr Bytes kOverhead = kvstore::Store::kPerKeyOverhead;

TEST(ShardedStore, ShardOfMatchesFnvDigest) {
  ShardedStore st({4, 1 << 20, ""});
  for (const auto* key : {"a", "stripe:0", "k1234", ""}) {
    EXPECT_EQ(st.shard_of(key), hash::key_digest(key) % 4) << key;
  }
}

TEST(ShardedStore, PutGetDelRoundtripAcrossShards) {
  ShardedStore st({8, 1 << 20, "tok"});
  std::set<std::size_t> shards_hit;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "k" + std::to_string(i);
    shards_hit.insert(st.shard_of(key));
    ASSERT_TRUE(st.put("tok", key, bytes_blob("v" + std::to_string(i))).ok());
  }
  EXPECT_GT(shards_hit.size(), 1u);  // keys actually spread out
  EXPECT_EQ(st.key_count(), 64u);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto r = st.get("tok", key);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_EQ(r.value(), bytes_blob("v" + std::to_string(i)));
    ASSERT_TRUE(st.del("tok", key).ok());
  }
  EXPECT_EQ(st.key_count(), 0u);
  EXPECT_EQ(st.used(), 0u);
}

TEST(ShardedStore, AuthEnforcedPerOp) {
  ShardedStore st({2, 1 << 20, "tok"});
  EXPECT_EQ(st.put("bad", "k", bytes_blob("v")).code(), Errc::permission);
  EXPECT_TRUE(st.check_token("tok").ok());
  EXPECT_EQ(st.check_token("bad").code(), Errc::permission);
  ShardedStore open({2, 1 << 20, ""});
  EXPECT_TRUE(open.check_token("anything").ok());
}

// AUTH compares against the store's token, whatever state shard 0 is in,
// and a refusal counts as an auth failure.
TEST(ShardedStore, CheckTokenRefusesBadTokenWhileShardZeroIsClosed) {
  ShardedStore st({2, 1 << 20, "tok"});
  st.close_shard(0);
  EXPECT_EQ(st.check_token("bad").code(), Errc::permission);
  EXPECT_TRUE(st.check_token("tok").ok());
  EXPECT_EQ(st.stats().auth_failures, 1u);
  ShardedStore open({2, 1 << 20, ""});
  open.close_shard(0);
  EXPECT_TRUE(open.check_token("anything").ok());
}

TEST(ShardedStore, AggregateCapHeldAcrossShards) {
  // Cap fits exactly 4 values; per-shard caps never bind (they equal the
  // aggregate), so only the atomic gate can refuse the 5th.
  const Bytes val = 1024;
  ShardedStore st({4, 4 * (val + kOverhead), ""});
  int stored = 0;
  int i = 0;
  for (; stored < 4; ++i) {
    ASSERT_LT(i, 64) << "could not place 4 values";
    if (st.put("", "k" + std::to_string(i),
               kvstore::Blob::ghost(val, i)).ok())
      ++stored;
  }
  EXPECT_EQ(st.used(), st.capacity());
  EXPECT_EQ(st.put("", "overflow", kvstore::Blob::ghost(val, 99)).code(),
            Errc::out_of_memory);
  // Freeing one value on any shard re-admits one value on any other.
  ASSERT_TRUE(st.del("", "k0").ok());
  EXPECT_TRUE(st.put("", "overflow", kvstore::Blob::ghost(val, 99)).ok());
}

TEST(ShardedStore, OverwriteAdjustsAggregateBothWays) {
  ShardedStore st({2, 1 << 20, ""});
  ASSERT_TRUE(st.put("", "k", kvstore::Blob::ghost(1000, 1)).ok());
  EXPECT_EQ(st.used(), 1000 + kOverhead);
  ASSERT_TRUE(st.put("", "k", kvstore::Blob::ghost(4000, 2)).ok());  // grow
  EXPECT_EQ(st.used(), 4000 + kOverhead);
  ASSERT_TRUE(st.put("", "k", kvstore::Blob::ghost(500, 3)).ok());  // shrink
  EXPECT_EQ(st.used(), 500 + kOverhead);
}

TEST(ShardedStore, SameSizeOverwriteKeepsResidentBuffer) {
  ShardedStore st({4, 1 << 20, "tok"});
  auto first = kvstore::Blob::materialized(std::vector<std::uint8_t>(4096, 1));
  const auto* resident = first.bytes().data();  // moves keep the buffer
  ASSERT_TRUE(st.put("tok", "k", std::move(first)).ok());
  const Bytes used = st.used();
  const auto second =
      kvstore::Blob::materialized(std::vector<std::uint8_t>(4096, 2));
  ASSERT_TRUE(st.put("tok", "k", second).ok());
  EXPECT_EQ(st.used(), used);
  EXPECT_EQ(st.used(), 4096 + kOverhead);
  EXPECT_EQ(st.get("tok", "k").value(), second);
  EXPECT_EQ(st.stats().puts, 2u);
  EXPECT_EQ(st.stats().bytes_in, 8192u);
  auto out = st.evict("k");
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->bytes().data(), resident);
  EXPECT_EQ(*out, second);
  EXPECT_TRUE(out->verify());
  EXPECT_EQ(st.used(), 0u);
}

TEST(ShardedStore, FailedPutReleasesReservation) {
  ShardedStore st({2, 1 << 20, "tok"});
  EXPECT_EQ(st.put("bad", "k", kvstore::Blob::ghost(1000, 1)).code(),
            Errc::permission);
  EXPECT_EQ(st.used(), 0u);
}

TEST(ShardedStore, CloseShardFailsOnlyThatShard) {
  ShardedStore st({4, 1 << 20, ""});
  // Find keys on two different shards.
  std::string on0, other;
  for (int i = 0; i < 64 && (on0.empty() || other.empty()); ++i) {
    const std::string key = "k" + std::to_string(i);
    if (st.shard_of(key) == 0) on0 = key;
    else other = key;
  }
  ASSERT_FALSE(on0.empty());
  ASSERT_FALSE(other.empty());
  st.close_shard(0);
  EXPECT_TRUE(st.shard_closed(0));
  EXPECT_EQ(st.put("", on0, bytes_blob("v")).code(), Errc::unavailable);
  EXPECT_TRUE(st.put("", other, bytes_blob("v")).ok());
}

TEST(ShardedStore, EvictReleasesAccounting) {
  ShardedStore st({2, 1 << 20, "tok"});
  ASSERT_TRUE(st.put("tok", "k", bytes_blob("value")).ok());
  const Bytes before = st.used();
  auto b = st.evict("k");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->size(), 5u);
  EXPECT_EQ(st.used(), before - (5 + kOverhead));
  EXPECT_FALSE(st.evict("k").has_value());
}

TEST(ShardedStore, ClearShardReleasesOnlyItsBytes) {
  ShardedStore st({2, 1 << 20, ""});
  for (int i = 0; i < 32; ++i)
    ASSERT_TRUE(st.put("", "k" + std::to_string(i),
                       kvstore::Blob::ghost(100, i)).ok());
  const Bytes s0 = st.shard_used(0);
  const Bytes s1 = st.shard_used(1);
  EXPECT_EQ(st.used(), s0 + s1);
  EXPECT_EQ(st.clear_shard(0), s0);
  EXPECT_EQ(st.used(), s1);
  EXPECT_EQ(st.shard_used(0), 0u);
  EXPECT_EQ(st.shard_used(1), s1);
}

TEST(ShardedStore, UsedEqualsSumOfShardsAndRecomputation) {
  ShardedStore st({4, 1 << 20, ""});
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(st.put("", "k" + std::to_string(i),
                       kvstore::Blob::ghost(64 + i, i)).ok());
  for (int i = 0; i < 100; i += 3)
    ASSERT_TRUE(st.del("", "k" + std::to_string(i)).ok());
  Bytes sum = 0, recomputed = 0;
  for (std::size_t s = 0; s < st.shard_count(); ++s) {
    sum += st.shard_used(s);
    recomputed += st.shard_recomputed_used(s);
  }
  EXPECT_EQ(st.used(), sum);
  EXPECT_EQ(sum, recomputed);
}

TEST(ShardedStore, StatsAggregateOverShards) {
  ShardedStore st({4, 1 << 20, "tok"});
  ASSERT_TRUE(st.put("tok", "a", bytes_blob("1")).ok());
  ASSERT_TRUE(st.put("tok", "b", bytes_blob("2")).ok());
  (void)st.get("tok", "a");
  (void)st.get("tok", "missing");
  (void)st.del("tok", "b");
  const auto s = st.stats();
  EXPECT_EQ(s.puts, 2u);
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.dels, 1u);
}

// --- read(): get() without the copy ------------------------------------------

TEST(ShardedStoreRead, HitSeesTheResidentValueInPlace) {
  ShardedStore st({4, 1 << 20, "tok"});
  ASSERT_TRUE(st.put("tok", "k", bytes_blob("value")).ok());
  const std::uint8_t* first = nullptr;
  int calls = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(st.read("tok", "k", [&](const kvstore::Blob& b) {
                    EXPECT_EQ(b, bytes_blob("value"));
                    if (first == nullptr) first = b.bytes().data();
                    EXPECT_EQ(b.bytes().data(), first);  // no copy
                    ++calls;
                  }).ok());
  }
  EXPECT_EQ(calls, 2);
  // get() hands out a share of the same resident bytes, not a copy.
  EXPECT_EQ(st.get("tok", "k").value().bytes().data(), first);
}

TEST(ShardedStoreRead, ErrorsMatchGetAndNeverCallFn) {
  ShardedStore st({4, 1 << 20, "tok"});
  std::string on0, other;
  for (int i = 0; i < 64 && (on0.empty() || other.empty()); ++i) {
    const std::string key = "k" + std::to_string(i);
    (st.shard_of(key) == 0 ? on0 : other) = key;
  }
  ASSERT_TRUE(st.put("tok", on0, bytes_blob("a")).ok());
  st.close_shard(0);
  bool called = false;
  auto fn = [&](const kvstore::Blob&) { called = true; };
  struct Case {
    const char* token;
    std::string key;
    Errc want;
  };
  for (const Case& c : {Case{"bad", other, Errc::permission},
                        Case{"tok", other, Errc::not_found},
                        Case{"tok", on0, Errc::unavailable}}) {
    EXPECT_EQ(st.get(c.token, c.key).code(), c.want) << c.key;
    EXPECT_EQ(st.read(c.token, c.key, fn).code(), c.want) << c.key;
  }
  EXPECT_FALSE(called);
}

TEST(ShardedStoreRead, StatsAndSeqMatchGet) {
  // The same op sequence on two stores, gets on one and reads on the
  // other, leaves identical stats and hands out identical seqs.
  ShardedStore by_get({4, 1 << 20, "tok"}), by_read({4, 1 << 20, "tok"});
  for (auto* st : {&by_get, &by_read}) {
    ASSERT_TRUE(st->put("tok", "a", bytes_blob("1234")).ok());
    ASSERT_TRUE(st->put("tok", "b", bytes_blob("56")).ok());
  }
  for (const auto& [token, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"tok", "a"}, {"tok", "missing"}, {"bad", "a"}, {"tok", "b"},
           {"tok", "a"}}) {
    std::uint64_t seq_get = 0, seq_read = 0;
    (void)by_get.get(token, key, &seq_get);
    (void)by_read.read(token, key, [](const kvstore::Blob&) {}, &seq_read);
    EXPECT_EQ(seq_get, seq_read) << token << " " << key;
  }
  const auto g = by_get.stats(), r = by_read.stats();
  EXPECT_EQ(g.gets, r.gets);
  EXPECT_EQ(g.hits, r.hits);
  EXPECT_EQ(g.misses, r.misses);
  EXPECT_EQ(g.auth_failures, r.auth_failures);
  EXPECT_EQ(g.bytes_out, r.bytes_out);
  EXPECT_EQ(r.gets, 4u);
  EXPECT_EQ(r.hits, 3u);
  EXPECT_EQ(r.bytes_out, 10u);
}

// Two threads hammering disjoint keys on all shards: the atomic
// aggregate must equal the per-shard sum once both joined.
TEST(ShardedStore, ConcurrentPutsKeepAccountingConsistent) {
  ShardedStore st({4, 8 << 20, ""});
  auto writer = [&](int base) {
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "t" + std::to_string(base) + ":" +
                              std::to_string(i % 97);
      (void)st.put("", key, kvstore::Blob::ghost(128, i));
      if (i % 7 == 0) (void)st.del("", key);
    }
  };
  std::thread a(writer, 0), b(writer, 1);
  a.join();
  b.join();
  Bytes sum = 0;
  for (std::size_t s = 0; s < st.shard_count(); ++s) sum += st.shard_used(s);
  EXPECT_EQ(st.used(), sum);
  EXPECT_LE(st.used(), st.capacity());
}

// The share contract under races. A writer overwrites a few keys with
// values of two sizes -- 1 KiB below the recycler's threshold and 6 KiB
// through it -- as fresh buffers, some taken from the recycler, and as
// shares of the pool's values, so overwrites of sole residents run in
// place and overwrites of shared ones replace them. Two readers each
// hold their last kHeld get results across those overwrites, and
// every result, when read and again when dropped, must verify and
// equal a value once written to its key. After quiesce each shard's
// tally must equal a recount of its keys.
TEST(ShardedStore, GetSharesSurviveConcurrentOverwrites) {
  constexpr int kKeys = 8, kVariants = 4, kPuts = 20000, kHeld = 16;
  ShardedStore st({4, 8 << 20, "tok"});
  // values[k][v]: variant v of key k; odd variants are the large size.
  std::vector<std::vector<kvstore::Blob>> values(kKeys);
  for (int k = 0; k < kKeys; ++k)
    for (int v = 0; v < kVariants; ++v)
      values[k].push_back(kvstore::Blob::materialized(std::vector<std::uint8_t>(
          v % 2 ? 6144 : 1024, static_cast<std::uint8_t>(k * kVariants + v))));
  auto key = [](int k) { return "k" + std::to_string(k); };
  for (int k = 0; k < kKeys; ++k)
    ASSERT_TRUE(st.put("tok", key(k), values[k][0]).ok());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad{0}, reads{0};
  auto known = [&](int k, const kvstore::Blob& b) {
    if (!b.verify()) return false;
    for (const auto& v : values[k])
      if (b == v) return true;
    return false;
  };
  auto reader = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<int, kvstore::Blob>> held(kHeld);
    for (std::size_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
      auto& slot = held[i % kHeld];
      if (!slot.second.bytes().empty() && !known(slot.first, slot.second))
        bad.fetch_add(1);
      const int k = static_cast<int>(rng.uniform_u64(0, kKeys - 1));
      auto got = st.get("tok", key(k));
      if (!got.ok() || !known(k, got.value())) bad.fetch_add(1);
      slot = {k, std::move(got).value()};
      reads.fetch_add(1, std::memory_order_relaxed);
    }
    for (const auto& [k, b] : held)
      if (!b.bytes().empty() && !known(k, b)) bad.fetch_add(1);
  };
  std::thread r1(reader, 1), r2(reader, 2);
  Rng rng(3);
  for (int i = 0; i < kPuts; ++i) {
    const int k = static_cast<int>(rng.uniform_u64(0, kKeys - 1));
    const kvstore::Blob& v = values[k][rng.uniform_u64(0, kVariants - 1)];
    kvstore::Blob next;
    switch (i % 3) {
      case 0: next = v; break;  // a share of the pool's value
      case 1:
        next = kvstore::Blob::materialized(
            std::vector<std::uint8_t>(v.bytes().begin(), v.bytes().end()));
        break;
      default: next = kvstore::Blob::materialized(take_copy(v.bytes()));
    }
    if (!st.put("tok", key(k), std::move(next)).ok()) bad.fetch_add(1);
  }
  // Let the readers see the final values too before they stop.
  for (const auto r0 = reads.load(); reads.load() < r0 + 1000;)
    std::this_thread::yield();
  done.store(true);
  r1.join();
  r2.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(reads.load(), 1000u);
  for (std::size_t s = 0; s < st.shard_count(); ++s)
    EXPECT_EQ(st.shard_used(s), st.shard_recomputed_used(s)) << s;
  // The pool's values were never written through a share.
  for (const auto& per_key : values)
    for (const auto& v : per_key) EXPECT_TRUE(v.verify());
}

}  // namespace
}  // namespace memfss::rt
