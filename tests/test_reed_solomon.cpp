#include "erasure/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "erasure/gf256_simd.hpp"

namespace memfss::erasure {
namespace {

std::vector<std::uint8_t> random_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = std::uint8_t(rng.next_u64());
  return v;
}

TEST(ReedSolomon, EncodeShapes) {
  ReedSolomon rs(4, 2);
  EXPECT_EQ(rs.data_shards(), 4u);
  EXPECT_EQ(rs.parity_shards(), 2u);
  EXPECT_EQ(rs.total_shards(), 6u);
  EXPECT_EQ(rs.shard_size(100), 25u);
  EXPECT_EQ(rs.shard_size(101), 26u);

  const auto data = random_payload(100, 1);
  const auto shards = rs.encode(data);
  ASSERT_EQ(shards.size(), 6u);
  for (const auto& s : shards) EXPECT_EQ(s.size(), 25u);
}

TEST(ReedSolomon, ShardSizeNeverWraps) {
  // len / k rounded up for a len near 2^64: (len + k - 1) / k would wrap
  // to 0 here.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(ReedSolomon(4, 2).shard_size(kMax), std::size_t{1} << 62);
  EXPECT_EQ(ReedSolomon(4, 2).shard_size(kMax - 3),
            (std::size_t{1} << 62) - 1);  // an exact multiple of 4
  EXPECT_EQ(ReedSolomon(3, 1).shard_size(kMax), kMax / 3);
  EXPECT_EQ(ReedSolomon(1, 0).shard_size(kMax), kMax);
  EXPECT_EQ(ReedSolomon(4, 2).shard_size(0), 0u);
  EXPECT_EQ(ReedSolomon(4, 2).shard_size(1), 1u);
}

TEST(ReedSolomon, SystematicDataShardsVerbatim) {
  ReedSolomon rs(3, 2);
  const auto data = random_payload(90, 2);
  const auto shards = rs.encode(data);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 30; ++j)
      EXPECT_EQ(shards[i][j], data[i * 30 + j]);
  }
}

TEST(ReedSolomon, DecodeWithNoLoss) {
  ReedSolomon rs(4, 2);
  const auto data = random_payload(1000, 3);
  auto shards = rs.encode(data);
  auto decoded = rs.decode(shards, data.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), data);
}

struct LossCase {
  std::size_t k, m;
  std::vector<std::size_t> lost;
};

class LossRecovery : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossRecovery, RecoversUpToMLosses) {
  const auto& c = GetParam();
  ReedSolomon rs(c.k, c.m);
  const auto data = random_payload(997, 7 + c.k);  // odd size: padding path
  auto shards = rs.encode(data);
  for (auto i : c.lost) shards[i].clear();
  auto decoded = rs.decode(shards, data.size());
  ASSERT_TRUE(decoded.ok()) << "k=" << c.k << " m=" << c.m;
  EXPECT_EQ(decoded.value(), data);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LossRecovery,
    ::testing::Values(
        LossCase{4, 2, {0}},          // one data shard
        LossCase{4, 2, {4}},          // one parity shard
        LossCase{4, 2, {1, 5}},       // data + parity
        LossCase{4, 2, {0, 1}},       // two data shards
        LossCase{4, 2, {4, 5}},       // both parity shards
        LossCase{6, 3, {0, 3, 7}},    // full parity budget
        LossCase{2, 1, {1}},          // minimal config
        LossCase{8, 4, {0, 2, 9, 11}},
        LossCase{1, 2, {0, 1}}));     // replication-like k=1

TEST(ReedSolomon, FailsBeyondParityBudget) {
  ReedSolomon rs(4, 2);
  const auto data = random_payload(512, 9);
  auto shards = rs.encode(data);
  shards[0].clear();
  shards[1].clear();
  shards[2].clear();  // 3 losses > m=2
  auto decoded = rs.decode(shards, data.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, Errc::corruption);
}

TEST(ReedSolomon, ReconstructRebuildsAllShards) {
  ReedSolomon rs(5, 3);
  const auto data = random_payload(2000, 11);
  const auto original = rs.encode(data);
  auto shards = original;
  shards[1].clear();
  shards[6].clear();
  ASSERT_TRUE(rs.reconstruct(shards).ok());
  for (std::size_t i = 0; i < shards.size(); ++i)
    EXPECT_EQ(shards[i], original[i]) << "shard " << i;
}

TEST(ReedSolomon, ReconstructRejectsBadInput) {
  ReedSolomon rs(4, 2);
  std::vector<std::vector<std::uint8_t>> wrong_count(3);
  EXPECT_EQ(rs.reconstruct(wrong_count).code(), Errc::invalid_argument);

  auto shards = rs.encode(random_payload(64, 13));
  shards[0].resize(3);  // inconsistent shard size
  EXPECT_EQ(rs.reconstruct(shards).code(), Errc::invalid_argument);
}

TEST(ReedSolomon, ZeroParityIsPlainStriping) {
  ReedSolomon rs(4, 0);
  const auto data = random_payload(128, 15);
  auto shards = rs.encode(data);
  EXPECT_EQ(shards.size(), 4u);
  auto decoded = rs.decode(shards, data.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), data);
}

TEST(ReedSolomon, EmptyPayload) {
  ReedSolomon rs(4, 2);
  auto shards = rs.encode({});
  EXPECT_EQ(shards.size(), 6u);
  auto decoded = rs.decode(shards, 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(ReedSolomon, EncodeIntoMatchesEncode) {
  ReedSolomon rs(8, 3);
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{97},
                          std::size_t{4096}, std::size_t{100001}}) {
    const auto data = random_payload(len, 21 + len);
    const auto expect = rs.encode(data);
    const std::size_t ss = rs.shard_size(len);
    std::vector<std::uint8_t> arena(rs.total_shards() * ss, 0xEE);
    std::vector<std::uint8_t*> ptrs(rs.total_shards());
    for (std::size_t i = 0; i < ptrs.size(); ++i)
      ptrs[i] = arena.data() + i * ss;
    ASSERT_TRUE(rs.encode_into(data, ptrs.data(), ss).ok()) << len;
    for (std::size_t i = 0; i < rs.total_shards(); ++i)
      ASSERT_TRUE(std::equal(expect[i].begin(), expect[i].end(), ptrs[i]))
          << "len=" << len << " shard=" << i;
  }
}

TEST(ReedSolomon, EncodeIntoRejectsWrongShardSize) {
  ReedSolomon rs(4, 2);
  const auto data = random_payload(100, 23);
  std::vector<std::uint8_t> arena(6 * 26);
  std::vector<std::uint8_t*> ptrs(6);
  for (std::size_t i = 0; i < 6; ++i) ptrs[i] = arena.data() + i * 26;
  EXPECT_EQ(rs.encode_into(data, ptrs.data(), 26).code(),
            Errc::invalid_argument);  // shard_size(100) == 25
}

// --- SIMD-vs-scalar coding equivalence (DESIGN.md §14) ----------------------

TEST(ReedSolomon, KernelPinningIsVisible) {
  const erasure::GF256Kernels* sc = gf256_kernels_by_name("scalar");
  ASSERT_NE(sc, nullptr);
  EXPECT_STREQ(ReedSolomon(4, 2, sc).kernel_name(), "scalar");
  EXPECT_STREQ(ReedSolomon(4, 2).kernel_name(), gf256_kernel_name());
}

TEST(ReedSolomon, EveryBackendEncodesIdentically) {
  const GF256Kernels* sc = gf256_kernels_by_name("scalar");
  ASSERT_NE(sc, nullptr);
  Rng rng(29);
  for (const char* name : gf256_kernel_names()) {
    const GF256Kernels* kn = gf256_kernels_by_name(name);
    if (kn == nullptr) continue;  // host cannot run this backend
    for (int iter = 0; iter < 40; ++iter) {
      const std::size_t k = 1 + rng.next_u64() % 17;
      const std::size_t m = rng.next_u64() % 7;
      const std::size_t len = rng.next_u64() % 3000;
      ReedSolomon simd(k, m, kn), scalar(k, m, sc);
      const auto data = random_payload(len, 31 + std::uint64_t(iter));
      ASSERT_EQ(simd.encode(data), scalar.encode(data))
          << name << " k=" << k << " m=" << m << " len=" << len;
    }
  }
}

TEST(ReedSolomon, EveryBackendDecodesIdentically) {
  const GF256Kernels* sc = gf256_kernels_by_name("scalar");
  ASSERT_NE(sc, nullptr);
  Rng rng(37);
  for (const char* name : gf256_kernel_names()) {
    const GF256Kernels* kn = gf256_kernels_by_name(name);
    if (kn == nullptr) continue;
    for (int iter = 0; iter < 40; ++iter) {
      const std::size_t k = 1 + rng.next_u64() % 17;
      const std::size_t m = 1 + rng.next_u64() % 6;
      const std::size_t len = 1 + rng.next_u64() % 3000;
      ReedSolomon simd(k, m, kn), scalar(k, m, sc);
      const auto data = random_payload(len, 41 + std::uint64_t(iter));
      auto shards = simd.encode(data);
      // Knock out a random subset within the parity budget.
      std::vector<std::size_t> idx(k + m);
      std::iota(idx.begin(), idx.end(), 0);
      for (std::size_t i = idx.size() - 1; i > 0; --i)
        std::swap(idx[i], idx[rng.next_u64() % (i + 1)]);
      const std::size_t losses = rng.next_u64() % (m + 1);
      for (std::size_t l = 0; l < losses; ++l) shards[idx[l]].clear();
      auto a = simd.decode(shards, len);
      auto b = scalar.decode(shards, len);
      ASSERT_TRUE(a.ok() && b.ok()) << name << " iter=" << iter;
      ASSERT_EQ(a.value(), b.value()) << name << " iter=" << iter;
      ASSERT_EQ(a.value(), data) << name << " iter=" << iter;
    }
  }
}

// Randomized reconstruct fuzz: random (k, m) up to (17, 6), random loss
// patterns up to m (must rebuild byte-for-byte) and beyond m (must fail
// with corruption, never crash).
TEST(ReedSolomon, ReconstructFuzzRandomLossPatterns) {
  Rng rng(43);
  for (int iter = 0; iter < 150; ++iter) {
    const std::size_t k = 1 + rng.next_u64() % 17;
    const std::size_t m = rng.next_u64() % 7;
    ReedSolomon rs(k, m);
    const auto data = random_payload(1 + rng.next_u64() % 2048,
                                     53 + std::uint64_t(iter));
    const auto original = rs.encode(data);
    std::vector<std::size_t> idx(k + m);
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t i = idx.size() - 1; i > 0; --i)
      std::swap(idx[i], idx[rng.next_u64() % (i + 1)]);

    // Recoverable pattern: <= m losses.
    auto shards = original;
    const std::size_t losses = rng.next_u64() % (m + 1);
    for (std::size_t l = 0; l < losses; ++l) shards[idx[l]].clear();
    ASSERT_TRUE(rs.reconstruct(shards).ok())
        << "k=" << k << " m=" << m << " losses=" << losses;
    for (std::size_t i = 0; i < shards.size(); ++i)
      ASSERT_EQ(shards[i], original[i])
          << "iter=" << iter << " shard=" << i;

    // Unrecoverable pattern: m+1 losses (when that leaves < k shards'
    // worth of information, i.e. always) must fail cleanly.
    auto torn = original;
    for (std::size_t l = 0; l < m + 1 && l < idx.size(); ++l)
      torn[idx[l]].clear();
    if (m + 1 <= k + m) {
      auto st = rs.reconstruct(torn);
      ASSERT_FALSE(st.ok()) << "k=" << k << " m=" << m;
      EXPECT_EQ(st.code(), Errc::corruption);
    }
  }
}

TEST(ReedSolomon, MemoryOverheadIsMOverK) {
  // The paper's motivation for EC over replication: RS(4,2) costs 1.5x,
  // 3-way replication costs 3x.
  ReedSolomon rs(4, 2);
  const std::size_t payload = 1 * 1024 * 1024;
  const auto shards = rs.encode(random_payload(payload, 17));
  std::size_t stored = 0;
  for (const auto& s : shards) stored += s.size();
  EXPECT_NEAR(double(stored) / double(payload), 1.5, 0.01);
}

}  // namespace
}  // namespace memfss::erasure
