// Stress test: racing put/get/del/evict/close/clear across shards under
// a deliberately tight aggregate cap, asserting the accounting
// invariants from DESIGN.md §11 the whole time:
//
//   1. used() never exceeds capacity() at any sampled instant (the
//      reserve-before-insert gate);
//   2. used() never goes negative -- Bytes is unsigned, so an
//      underflow would wrap far past the cap and trip invariant 1;
//   3. after quiesce, used() equals the sum of per-shard accounting,
//      and each shard's accounting equals a recomputation from its
//      surviving keys.
//
// The cap is sized so out_of_memory rejections fire constantly
// (exercising the reserve/release path), and shards are cleared and
// one is closed mid-run so the eviction/unavailable paths race the
// writers too. That chaos is paced by total mutator progress -- the op
// that brings the shared count to a multiple of kOpsPerClear clears a
// shard, op kCloseAtOp closes one -- not by how often a separate thread
// gets scheduled, so the clear-to-op ratio, and with it the cap
// pressure, is the same under any thread timing, sanitizers included.
// Op streams come from the shared seed-deterministic generator
// (rt/opstream.hpp) -- the same one the load driver replays over every
// transport -- so the put/get/del mix here is the same
// reproducible stream family every other harness replays; only the
// value sizes and the evict interleave stay locally randomized.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "rt/opstream.hpp"
#include "rt/sharded_store.hpp"

namespace memfss::rt {
namespace {

constexpr std::size_t kShards = 8;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kOpsPerThread = 30000;
constexpr std::size_t kKeySpace = 128;
constexpr Bytes kMaxValue = 512;
// Roughly a third of the worst-case live set: ooms are routine.
constexpr Bytes kCap =
    kKeySpace * (kMaxValue + kvstore::Store::kPerKeyOverhead) / 3;
// Chaos pacing, in ops counted across all mutator threads.
constexpr std::uint64_t kOpsPerClear = 256;
constexpr std::uint64_t kCloseAtOp = kThreads * kOpsPerThread / 4;

/// Stream shape shared with the load driver: the put/get/
/// del mix and key popularity are a pure function of (seed, thread).
StreamOptions stress_stream(std::size_t ops) {
  StreamOptions s;
  s.seed = 0xabcdef;
  s.ops_per_thread = ops;
  s.get_fraction = 0.25;
  s.del_fraction = 0.20;
  s.key_space = kKeySpace;
  return s;
}

TEST(RtStress, AccountingInvariantsUnderRacingMutators) {
  ShardedStore store({kShards, kCap, ""});
  std::atomic<std::uint64_t> cap_violations{0};
  std::atomic<std::uint64_t> ooms{0};
  std::atomic<std::uint64_t> progress{0};  // mutator ops completed

  auto sample = [&] {
    // Relaxed sample mid-race: an underflow wraps Bytes to ~2^64 and an
    // over-admission lands above the cap; both trip this.
    if (store.used() > store.capacity()) cap_violations.fetch_add(1);
  };

  auto mutator = [&](std::size_t t) {
    const auto stream = generate_stream(stress_stream(kOpsPerThread), t);
    Rng rng(0xabcdef + t);  // sizes + evict interleave only
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const GenOp& g = stream[i];
      const std::string key = loadgen_key(g.key_index);
      switch (g.type) {
        case Op::Type::put: {
          const auto st = store.put("", key,
                                    kvstore::Blob::ghost(
                                        rng.uniform_u64(0, kMaxValue), i));
          if (st.code() == Errc::out_of_memory) ooms.fetch_add(1);
          break;
        }
        case Op::Type::get: (void)store.get("", key); break;
        case Op::Type::del: (void)store.del("", key); break;
        default: break;
      }
      if (rng.chance(0.10)) (void)store.evict(key);
      const std::uint64_t n = progress.fetch_add(1) + 1;
      if (n % kOpsPerClear == 0)
        (void)store.clear_shard((n / kOpsPerClear) % kShards);
      // One shard goes down for good mid-run; ops on it must fail
      // unavailable without disturbing anyone's accounting.
      if (n == kCloseAtOp) store.close_shard(n % kShards);
      sample();
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(mutator, t);
  for (auto& th : threads) th.join();

  EXPECT_EQ(cap_violations.load(), 0u);
  EXPECT_GT(ooms.load(), 0u) << "cap never bound; stress has no teeth";

  // Quiesced: the atomic aggregate, the per-shard tallies, and a
  // recomputation from surviving keys must all agree.
  Bytes shard_sum = 0, recomputed = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    shard_sum += store.shard_used(s);
    recomputed += store.shard_recomputed_used(s);
  }
  EXPECT_EQ(store.used(), shard_sum);
  EXPECT_EQ(shard_sum, recomputed);
  EXPECT_LE(store.used(), store.capacity());
}

// Same invariants with every op forced through one overloaded shard:
// maximal contention on a single mutex + the atomic gate.
TEST(RtStress, SingleShardContention) {
  ShardedStore store({1, 32 * (kMaxValue + kvstore::Store::kPerKeyOverhead),
                      ""});
  auto mutator = [&](std::size_t t) {
    StreamOptions so = stress_stream(10000);
    so.seed = 7;
    so.get_fraction = 0.20;
    so.key_space = 64;
    const auto stream = generate_stream(so, t);
    Rng rng(7 + t);  // value sizes only
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const GenOp& g = stream[i];
      const std::string key = loadgen_key(g.key_index);
      switch (g.type) {
        case Op::Type::put:
          (void)store.put("", key, kvstore::Blob::ghost(
                                       rng.uniform_u64(0, kMaxValue), i));
          break;
        case Op::Type::del: (void)store.del("", key); break;
        default: (void)store.get("", key); break;
      }
      ASSERT_LE(store.used(), store.capacity());
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(mutator, t);
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.used(), store.shard_used(0));
  EXPECT_EQ(store.shard_used(0), store.shard_recomputed_used(0));
}

}  // namespace
}  // namespace memfss::rt
