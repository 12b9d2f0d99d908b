#include "hash/hashes.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace memfss::hash {
namespace {

TEST(TrWeight, DeterministicAnd31Bit) {
  for (std::uint32_t s = 0; s < 100; ++s) {
    for (std::uint32_t k = 0; k < 100; k += 7) {
      const auto w1 = tr_weight(s, k);
      const auto w2 = tr_weight(s, k);
      EXPECT_EQ(w1, w2);
      EXPECT_LT(w1, 1u << 31);
    }
  }
}

TEST(TrWeight, SensitiveToBothArguments) {
  EXPECT_NE(tr_weight(1, 100), tr_weight(2, 100));
  EXPECT_NE(tr_weight(1, 100), tr_weight(1, 101));
}

TEST(Fnv1a, KnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Mix64, DispersesLowBitChanges) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  const int trials = 256;
  for (int i = 0; i < trials; ++i) {
    const auto a = mix64(i, 12345);
    const auto b = mix64(i ^ 1, 12345);
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = double(total_flips) / trials;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(Mix64, NoObviousCollisions) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i, 7));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Fold31, InRange) {
  for (std::uint64_t x : {0ull, 1ull, ~0ull, 0xdeadbeefcafebabeull}) {
    EXPECT_LT(fold31(x), 1u << 31);
  }
}

TEST(KeyDigest, MatchesFnv) {
  EXPECT_EQ(key_digest("stripe-17"), fnv1a("stripe-17"));
}

// The batched digest loop must be bit-identical to fnv1a per key: its
// output feeds placement, where a single differing digest silently
// moves data.
TEST(Fnv1aMany, MatchesSingleShotEveryBatchShape) {
  // Every batch size around the 4-lane grouping (0..9 covers full
  // groups, partial tails, and the empty batch) with mixed-length keys,
  // including empty ones.
  std::vector<std::string> pool;
  for (int i = 0; i < 16; ++i)
    pool.push_back(std::string(std::size_t(i) * 3, char('a' + i)) +
                   std::to_string(i * 131071));
  pool[3].clear();
  pool[11].clear();
  for (std::size_t n = 0; n <= pool.size(); ++n) {
    std::vector<std::string_view> keys(pool.begin(),
                                       pool.begin() + std::ptrdiff_t(n));
    std::vector<std::uint64_t> out(n, 0xDEAD);
    fnv1a_many(keys, out);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], fnv1a(keys[i])) << "n=" << n << " i=" << i;
  }
}

TEST(Fnv1aMany, MatchesSingleShotLargeUniformBatch) {
  // The bench shape: many keys of identical length, so the interleaved
  // lanes run the full lockstep loop with no serial tail.
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i)
    keys.push_back("i12345:" + std::to_string(1000000 + i) +
                   ":stripe-payload-key");
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<std::uint64_t> out(views.size());
  fnv1a_many(views, out);
  for (std::size_t i = 0; i < views.size(); ++i)
    ASSERT_EQ(out[i], fnv1a(views[i])) << i;
}

// The erasure-coded put checksums its k+m shards in one call: equal
// 16 KiB inputs, from one key up to two full groups of four.
TEST(Fnv1aMany, MatchesSingleShotEqualLengthShards) {
  std::vector<std::string> shards(8, std::string(16 * 1024, '\0'));
  for (std::size_t s = 0; s < shards.size(); ++s)
    for (std::size_t i = 0; i < shards[s].size(); ++i)
      shards[s][i] = char((i * 131 + s * 7919) ^ (i >> 9));
  for (std::size_t n = 1; n <= shards.size(); ++n) {
    std::vector<std::string_view> views(shards.begin(),
                                        shards.begin() + std::ptrdiff_t(n));
    std::vector<std::uint64_t> out(n, 0xDEAD);
    fnv1a_many(views, out);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], fnv1a(views[i])) << "n=" << n << " i=" << i;
  }
}

// Leftover groups of one, two and three keys after a full group, with
// lengths that differ so every lane also runs a serial tail.
TEST(Fnv1aMany, MatchesSingleShotMixedLengthTails) {
  std::vector<std::string> pool;
  for (std::size_t len : {4096u, 17u, 1000u, 3u, 2048u, 0u, 777u})
    pool.push_back(std::string(len, char('a' + len % 26)) +
                   std::to_string(len * 65537));
  for (std::size_t tail = 1; tail <= 3; ++tail) {
    const std::size_t n = 4 + tail;
    std::vector<std::string_view> views(pool.begin(),
                                        pool.begin() + std::ptrdiff_t(n));
    std::vector<std::uint64_t> out(n, 0xDEAD);
    fnv1a_many(views, out);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], fnv1a(views[i])) << "tail=" << tail << " i=" << i;
    // The same tail on its own, with no full group in front.
    std::vector<std::string_view> alone(views.end() - std::ptrdiff_t(tail),
                                        views.end());
    std::vector<std::uint64_t> out_alone(tail, 0xDEAD);
    fnv1a_many(alone, out_alone);
    for (std::size_t i = 0; i < tail; ++i)
      ASSERT_EQ(out_alone[i], fnv1a(alone[i])) << "tail=" << tail;
  }
}

TEST(Fnv1aMany, KnownVectors) {
  const std::vector<std::string_view> keys{"", "a", "foobar"};
  std::vector<std::uint64_t> out(3);
  fnv1a_many(keys, out);
  EXPECT_EQ(out[0], 0xcbf29ce484222325ull);
  EXPECT_EQ(out[1], 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(out[2], 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace memfss::hash
