#include "hash/hashes.hpp"

#include <gtest/gtest.h>

#include "common/cpu.hpp"

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace memfss::hash {
namespace {

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

TEST(KeyDigest, MatchesFnv) {
  EXPECT_EQ(key_digest("stripe-17"), fnv1a("stripe-17"));
}

// CRC32C, bit at a time, straight from the definition: reflected
// polynomial 0x82F63B78, register preset to all ones, final inversion.
// It shares no code or table with the library's arms.
// reference_step() takes one byte into a running register, so a prefix
// walk costs one step per length.
std::uint32_t reference_step(std::uint32_t reg, std::uint8_t byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; ++bit)
    reg = (reg & 1u) ? (reg >> 1) ^ 0x82f63b78u : reg >> 1;
  return reg;
}

std::uint32_t reference_crc32c(const std::uint8_t* p, std::size_t n) {
  std::uint32_t reg = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) reg = reference_step(reg, p[i]);
  return ~reg;
}

/// Every arm this host can run, the active one included.
std::vector<std::pair<const char*, Crc32cFn>> crc32c_arms() {
  std::vector<std::pair<const char*, Crc32cFn>> arms;
  for (const char* name : crc32c_kernel_names())
    if (Crc32cFn fn = crc32c_kernel_by_name(name)) arms.emplace_back(name, fn);
  return arms;
}

// RFC 3720 section B.4 plus the customary "123456789" check value.
TEST(Crc32c, KnownAnswerVectorsOnEveryArm) {
  std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xff), up(32), down(32);
  for (std::uint8_t i = 0; i < 32; ++i) {
    up[i] = i;
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::string_view check = "123456789";
  auto arms = crc32c_arms();
  arms.emplace_back("active", crc32c);
  arms.emplace_back("reference", [](const void* d, std::size_t n) {
    return reference_crc32c(static_cast<const std::uint8_t*>(d), n);
  });
  for (const auto& [name, fn] : arms) {
    EXPECT_EQ(fn(zeros.data(), 32), 0x8A9136AAu) << name;
    EXPECT_EQ(fn(ones.data(), 32), 0x62A8AB43u) << name;
    EXPECT_EQ(fn(up.data(), 32), 0x46DD794Eu) << name;
    EXPECT_EQ(fn(down.data(), 32), 0x113FDB5Cu) << name;
    EXPECT_EQ(fn(check.data(), check.size()), 0xE3069283u) << name;
    EXPECT_EQ(fn(nullptr, 0), 0u) << name;
  }
}

TEST(Crc32c, ArmsAreNamedAndSelectable) {
  EXPECT_NE(crc32c_kernel_by_name("table"), nullptr);
  EXPECT_EQ(crc32c_kernel_by_name("pclmul"), nullptr);
  EXPECT_EQ(crc32c_kernel_by_name(""), nullptr);
  const std::set<std::string_view> names(crc32c_kernel_names().begin(),
                                         crc32c_kernel_names().end());
  EXPECT_TRUE(names.count("table"));
  const std::string_view active = crc32c_kernel_name();
  EXPECT_TRUE(names.count(active)) << active;
  EXPECT_NE(crc32c_kernel_by_name(active), nullptr);
  // Selection takes the first arm this host runs, or the table arm
  // under MEMFSS_FORCE_SCALAR, and reports that arm's own name.
  std::string_view want = "table";
  if (!force_scalar()) {
    for (const char* name : crc32c_kernel_names()) {
      if (crc32c_kernel_by_name(name) != nullptr) {
        want = name;
        break;
      }
    }
  }
  EXPECT_EQ(active, want);
}

/// `n` random bytes plus 8 spare, so every start offset 0..7 has an
/// `n`-byte view.
std::vector<std::uint8_t> random_bytes(std::size_t n) {
  std::vector<std::uint8_t> buf(n + 8);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& b : buf) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return buf;
}

/// fn over buf[off..off+n) equals the reference for every n in
/// 0..max_len and every off below `offsets` (at most 8, the default):
/// each combination of unaligned start, 8-byte body and byte tail. The
/// reference walks each prefix one byte further per length.
void expect_matches_reference(const char* name, Crc32cFn fn,
                              std::size_t max_len, std::size_t offsets = 8) {
  const auto buf = random_bytes(max_len);
  for (std::size_t off = 0; off < offsets; ++off) {
    const std::uint8_t* p = buf.data() + off;
    std::uint32_t reg = 0xffffffffu;  // reference register over p[0..n)
    for (std::size_t n = 0; n <= max_len; ++n) {
      ASSERT_EQ(fn(p, n), ~reg) << name << " offset " << off << " length " << n;
      if (n < max_len) reg = reference_step(reg, p[n]);
    }
  }
}

// The hardware arm against the reference for every length 0..70,000
// (past one 64 KiB value) at every start offset 0..7.
TEST(Crc32c, HardwareArmMatchesBitwiseReference) {
  const Crc32cFn hw = crc32c_kernel_by_name("sse4.2");
  if (hw == nullptr) GTEST_SKIP() << "this host has no SSE4.2";
  expect_matches_reference("sse4.2", hw, 70000);
}

// The table arm is byte-serial, so lengths up to a few KiB at every
// offset cover all of its paths.
TEST(Crc32c, TableArmMatchesBitwiseReference) {
  expect_matches_reference("table", crc32c_kernel_by_name("table"), 4096);
}

// Every arm this host can run across the folding arm's boundaries:
// every length 0..2100 (the sse4.2 hand-off below 256 bytes, up to eight
// 256-byte blocks, every count of 16-byte folds and every byte tail) at
// offsets 0..2, then 16 KiB and 64 KiB, each +-1, and 70,000 bytes.
TEST(Crc32c, EveryArmMatchesBitwiseReferenceAcrossFoldBoundaries) {
  const auto buf = random_bytes(70000);
  for (const auto& [name, fn] : crc32c_arms()) {
    expect_matches_reference(name, fn, 2100, 3);
    for (const std::size_t n : {16383, 16384, 16385, 65535, 65536, 65537,
                                70000})
      for (std::size_t off = 0; off < 3; ++off)
        ASSERT_EQ(fn(buf.data() + off, n),
                  reference_crc32c(buf.data() + off, n))
            << name << " offset " << off << " length " << n;
  }
}

}  // namespace
}  // namespace memfss::hash
