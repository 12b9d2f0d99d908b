#include "erasure/gf256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "erasure/gf256_simd.hpp"

namespace memfss::erasure {
namespace {

TEST(GF256, AdditionIsXor) {
  EXPECT_EQ(GF256::add(0x57, 0x83), 0x57 ^ 0x83);
  EXPECT_EQ(GF256::sub(0x57, 0x83), 0x57 ^ 0x83);
}

TEST(GF256, KnownProduct) {
  // Classic AES example: 0x57 * 0x83 = 0xc1 under 0x11b.
  EXPECT_EQ(GF256::mul(0x57, 0x83), 0xc1);
  EXPECT_EQ(GF256::mul(0x02, 0x80), 0x1b ^ 0x00);  // reduction kicks in
}

TEST(GF256, MulByZeroAndOne) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(std::uint8_t(a), 0), 0);
    EXPECT_EQ(GF256::mul(std::uint8_t(a), 1), a);
  }
}

TEST(GF256, MultiplicationCommutesAndAssociates) {
  // Property sweep over a sample grid (full 256^3 is excessive).
  for (unsigned a = 1; a < 256; a += 7) {
    for (unsigned b = 1; b < 256; b += 11) {
      EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
      for (unsigned c = 1; c < 256; c += 53) {
        EXPECT_EQ(GF256::mul(GF256::mul(a, b), c),
                  GF256::mul(a, GF256::mul(b, c)));
      }
    }
  }
}

TEST(GF256, DistributesOverAddition) {
  for (unsigned a = 1; a < 256; a += 13) {
    for (unsigned b = 0; b < 256; b += 17) {
      for (unsigned c = 0; c < 256; c += 19) {
        EXPECT_EQ(GF256::mul(a, b ^ c),
                  GF256::mul(a, b) ^ GF256::mul(a, c));
      }
    }
  }
}

TEST(GF256, EveryNonzeroHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto inv = GF256::inv(std::uint8_t(a));
    EXPECT_EQ(GF256::mul(std::uint8_t(a), inv), 1) << "a=" << a;
  }
}

TEST(GF256, DivisionInvertsMultiplication) {
  for (unsigned a = 0; a < 256; a += 5) {
    for (unsigned b = 1; b < 256; b += 9) {
      const auto q = GF256::div(std::uint8_t(a), std::uint8_t(b));
      EXPECT_EQ(GF256::mul(q, std::uint8_t(b)), a);
    }
  }
}

TEST(GF256, PowMatchesRepeatedMul) {
  for (unsigned a : {2u, 3u, 0x53u}) {
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 20; ++e) {
      EXPECT_EQ(GF256::pow(std::uint8_t(a), e), acc);
      acc = GF256::mul(acc, std::uint8_t(a));
    }
  }
}

TEST(GF256, GeneratorHasFullOrder) {
  // exp cycles through all 255 nonzero elements.
  std::vector<bool> seen(256, false);
  for (unsigned e = 0; e < 255; ++e) {
    const auto v = GF256::exp(e);
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[v]) << "repeat at e=" << e;
    seen[v] = true;
  }
}

// dst ^= c * src is a one-row stripe pass with accumulate.
void mul_acc_one_row(const GF256Kernels& kn, std::vector<std::uint8_t>& dst,
                     const std::vector<std::uint8_t>& src, std::uint8_t c) {
  const std::uint8_t* row = src.data();
  kn.mul_row_acc(dst.data(), &row, &c, 1, dst.size(), /*accumulate=*/true);
}

TEST(GF256, MulAccMatchesScalarLoop) {
  std::vector<std::uint8_t> dst(64, 0), src(64);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::uint8_t(i * 7 + 1);
  auto expect = dst;
  const std::uint8_t c = 0x39;
  for (std::size_t i = 0; i < src.size(); ++i)
    expect[i] ^= GF256::mul(c, src[i]);
  mul_acc_one_row(gf256_active_kernels(), dst, src, c);
  EXPECT_EQ(dst, expect);
}

TEST(GF256, MulAccSpecialCoefficients) {
  std::vector<std::uint8_t> dst(8, 0xAA), src(8, 0x0F);
  auto before = dst;
  mul_acc_one_row(gf256_active_kernels(), dst, src, 0);  // no-op
  EXPECT_EQ(dst, before);
  mul_acc_one_row(gf256_active_kernels(), dst, src, 1);  // xor
  for (std::size_t i = 0; i < dst.size(); ++i)
    EXPECT_EQ(dst[i], 0xAA ^ 0x0F);
}

// --- SIMD backend equivalence (DESIGN.md §14) -------------------------------
//
// The scalar backend is the oracle; every backend the host can run must
// produce byte-for-byte identical output for every length (SIMD blocks,
// scalar tails) and every pointer misalignment.

std::vector<const GF256Kernels*> simd_backends() {
  std::vector<const GF256Kernels*> v;
  for (const char* name : gf256_kernel_names()) {
    if (std::string_view(name) == "scalar") continue;
    if (const GF256Kernels* k = gf256_kernels_by_name(name)) v.push_back(k);
  }
  return v;
}

TEST(GF256Simd, ScalarBackendAlwaysAvailable) {
  const GF256Kernels* sc = gf256_kernels_by_name("scalar");
  ASSERT_NE(sc, nullptr);
  EXPECT_STREQ(sc->name, "scalar");
}

TEST(GF256Simd, UnknownBackendIsNull) {
  EXPECT_EQ(gf256_kernels_by_name("avx512vbmi"), nullptr);
  EXPECT_EQ(gf256_kernels_by_name(""), nullptr);
}

TEST(GF256Simd, ActiveKernelIsFetchableByName) {
  const GF256Kernels& active = gf256_active_kernels();
  EXPECT_STREQ(active.name, gf256_kernel_name());
  const GF256Kernels* by_name = gf256_kernels_by_name(active.name);
  ASSERT_NE(by_name, nullptr);
  EXPECT_EQ(by_name, &active);
}

TEST(GF256Simd, SelectsFirstBackendThisHostRuns) {
  // Selection order is the order of gf256_kernel_names(); under
  // MEMFSS_FORCE_SCALAR the scalar backend runs whatever the host has.
  const auto names = gf256_kernel_names();
  ASSERT_FALSE(names.empty());
  EXPECT_STREQ(names.back(), "scalar");
  const GF256Kernels* want = gf256_kernels_by_name("scalar");
  if (!force_scalar()) {
    for (const char* name : names) {
      if (const GF256Kernels* k = gf256_kernels_by_name(name)) {
        want = k;
        break;
      }
    }
  }
  EXPECT_EQ(&gf256_active_kernels(), want) << gf256_kernel_name();
}

TEST(Cpu, UnknownFeatureNamesAreFalse) {
  EXPECT_FALSE(cpu_has("not-a-feature"));
  EXPECT_FALSE(cpu_has(""));
  EXPECT_FALSE(cpu_has("AVX2"));  // names are lower case
  EXPECT_FALSE(cpu_has("avx512vbmi"));  // a real feature no arm asks for
  EXPECT_TRUE(cpu_has_all(""));
  EXPECT_FALSE(cpu_has_all("sse4.2 not-a-feature"));
  EXPECT_EQ(cpu_has_all("sse4.2"), cpu_has("sse4.2"));
  EXPECT_EQ(cpu_has_all("gfni avx512bw"),
            cpu_has("gfni") && cpu_has("avx512bw"));
}

TEST(GF256Simd, MulAccMatchesScalarAllLengthsAndOffsets) {
  // The row kernel on every backend, against GF256::mul from the log
  // tables, at every length up to 400 (SIMD blocks and every tail
  // length, up to three 128-byte blocks) and at misaligned dst and
  // source pointers, with 0, 1, 3, 6 (RS(4,2) decode-sized) and 11
  // source rows (more than one tail group of 8), in both accumulate
  // modes.
  const GF256Kernels* sc = gf256_kernels_by_name("scalar");
  ASSERT_NE(sc, nullptr);
  std::vector<const GF256Kernels*> all = simd_backends();
  all.push_back(sc);
  Rng rng(101);
  const auto check = [&](const GF256Kernels* kn, std::size_t k,
                         std::size_t len, std::size_t off, bool accumulate) {
    // Each source row sits at its own offset, so dst and the sources
    // are misaligned differently.
    std::vector<std::vector<std::uint8_t>> srcs(
        k, std::vector<std::uint8_t>(len + 64));
    std::vector<const std::uint8_t*> ptrs(k);
    std::vector<std::uint8_t> coeffs(k);
    for (std::size_t j = 0; j < k; ++j) {
      for (auto& x : srcs[j]) x = std::uint8_t(rng.next_u64());
      ptrs[j] = srcs[j].data() + (off + 7 * j) % 32;
      coeffs[j] = std::uint8_t(rng.next_u64());
    }
    std::vector<std::uint8_t> got(len + 64);
    for (auto& x : got) x = std::uint8_t(rng.next_u64());
    auto want = got;
    if (!accumulate) std::fill_n(want.begin() + off, len, 0);
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t i = 0; i < len; ++i)
        want[off + i] ^= GF256::mul(coeffs[j], ptrs[j][i]);
    kn->mul_row_acc(got.data() + off, ptrs.data(), coeffs.data(), k, len,
                    accumulate);
    ASSERT_EQ(got, want) << kn->name << " k=" << k << " len=" << len
                         << " off=" << off << " acc=" << accumulate;
  };
  for (const GF256Kernels* kn : all) {
    for (const std::size_t k : {0, 1, 3, 6, 11}) {
      for (const bool accumulate : {false, true}) {
        // A rotating offset across every length keeps the test fast...
        for (std::size_t len = 0; len <= 400; ++len)
          check(kn, k, len, len % 32, accumulate);
        // ...and every offset at lengths with a block and a 33-byte
        // tail (64-byte blocks on avx2, 128-byte ones on gfni).
        for (std::size_t off = 0; off <= 31; ++off) {
          check(kn, k, 97, off, accumulate);
          check(kn, k, 161, off, accumulate);
        }
      }
    }
  }
}

TEST(GF256Simd, MulAccSpecialCoefficientsEveryBackend) {
  const GF256Kernels* sc = gf256_kernels_by_name("scalar");
  ASSERT_NE(sc, nullptr);
  Rng rng(103);
  std::vector<const GF256Kernels*> all = simd_backends();
  all.push_back(sc);
  for (const GF256Kernels* kn : all) {
    std::vector<std::uint8_t> src(100), dst(100), before(100);
    for (auto& x : src) x = std::uint8_t(rng.next_u64());
    for (std::size_t i = 0; i < dst.size(); ++i)
      before[i] = dst[i] = std::uint8_t(rng.next_u64());
    mul_acc_one_row(*kn, dst, src, 0);  // c==0: no-op
    EXPECT_EQ(dst, before) << kn->name;
    mul_acc_one_row(*kn, dst, src, 1);  // c==1: plain xor
    for (std::size_t i = 0; i < dst.size(); ++i)
      ASSERT_EQ(dst[i], before[i] ^ src[i]) << kn->name << " i=" << i;
  }
}

TEST(GF256Simd, MulRowAccMatchesScalarRandomized) {
  const GF256Kernels* sc = gf256_kernels_by_name("scalar");
  ASSERT_NE(sc, nullptr);
  Rng rng(107);
  for (const GF256Kernels* kn : simd_backends()) {
    for (int iter = 0; iter < 400; ++iter) {
      const std::size_t k = 1 + rng.next_u64() % 17;
      const std::size_t len = rng.next_u64() % 300;
      const bool accumulate = rng.next_u64() % 2 != 0;
      std::vector<std::vector<std::uint8_t>> srcs(
          k, std::vector<std::uint8_t>(len));
      std::vector<const std::uint8_t*> ptrs(k);
      std::vector<std::uint8_t> coeffs(k);
      for (std::size_t j = 0; j < k; ++j) {
        for (auto& x : srcs[j]) x = std::uint8_t(rng.next_u64());
        ptrs[j] = srcs[j].data();
        // Bias toward the special-cased coefficients 0 and 1.
        const std::uint64_t roll = rng.next_u64();
        coeffs[j] = roll % 4 == 0 ? std::uint8_t(roll % 2)
                                  : std::uint8_t(roll >> 32);
      }
      std::vector<std::uint8_t> a(len), b(len);
      for (std::size_t i = 0; i < len; ++i)
        a[i] = b[i] = std::uint8_t(rng.next_u64());
      kn->mul_row_acc(a.data(), ptrs.data(), coeffs.data(), k, len,
                      accumulate);
      sc->mul_row_acc(b.data(), ptrs.data(), coeffs.data(), k, len,
                      accumulate);
      ASSERT_EQ(a, b) << kn->name << " iter=" << iter << " k=" << k
                      << " len=" << len << " acc=" << accumulate;
    }
  }
}

TEST(GF256Simd, MulRowAccAtK255EveryBackend) {
  // The widest stripe RS allows: 255 source rows, every coefficient
  // value (0 and 1 included), odd lengths around the 32/64-byte blocks,
  // both accumulate modes.
  const GF256Kernels* sc = gf256_kernels_by_name("scalar");
  ASSERT_NE(sc, nullptr);
  constexpr std::size_t k = 255;
  Rng rng(113);
  std::vector<const GF256Kernels*> all = simd_backends();
  all.push_back(sc);
  for (std::size_t len : {std::size_t{1}, std::size_t{31}, std::size_t{63},
                          std::size_t{97}, std::size_t{1001}}) {
    std::vector<std::vector<std::uint8_t>> srcs(
        k, std::vector<std::uint8_t>(len));
    std::vector<const std::uint8_t*> ptrs(k);
    std::vector<std::uint8_t> coeffs(k);
    for (std::size_t j = 0; j < k; ++j) {
      for (auto& x : srcs[j]) x = std::uint8_t(rng.next_u64());
      ptrs[j] = srcs[j].data();
      coeffs[j] = std::uint8_t(j + len);  // every value 0..255 but one
    }
    std::vector<std::uint8_t> init(len);
    for (auto& x : init) x = std::uint8_t(rng.next_u64());
    for (const bool accumulate : {false, true}) {
      // Oracle: GF256::mul straight from the log tables.
      std::vector<std::uint8_t> want = accumulate
                                           ? init
                                           : std::vector<std::uint8_t>(len);
      for (std::size_t j = 0; j < k; ++j)
        for (std::size_t i = 0; i < len; ++i)
          want[i] ^= GF256::mul(coeffs[j], srcs[j][i]);
      for (const GF256Kernels* kn : all) {
        std::vector<std::uint8_t> got = init;
        kn->mul_row_acc(got.data(), ptrs.data(), coeffs.data(), k, len,
                        accumulate);
        ASSERT_EQ(got, want) << kn->name << " len=" << len
                             << " acc=" << accumulate;
      }
    }
  }
}

TEST(GF256Simd, MulRowAccZeroSourcesZeroFillsOrKeeps) {
  std::vector<const GF256Kernels*> all = simd_backends();
  all.push_back(gf256_kernels_by_name("scalar"));
  for (const GF256Kernels* kn : all) {
    std::vector<std::uint8_t> dst(80, 0x5A);
    kn->mul_row_acc(dst.data(), nullptr, nullptr, 0, dst.size(), true);
    EXPECT_EQ(dst, std::vector<std::uint8_t>(80, 0x5A)) << kn->name;
    kn->mul_row_acc(dst.data(), nullptr, nullptr, 0, dst.size(), false);
    EXPECT_EQ(dst, std::vector<std::uint8_t>(80, 0x00)) << kn->name;
  }
}

TEST(GF256Simd, MulRowAccMatchesManualMulAccChain) {
  // Cross-check the fused row pass against the composition it replaces:
  // one pass over k source rows == k one-row passes with accumulate.
  Rng rng(109);
  const GF256Kernels& kn = gf256_active_kernels();
  const std::size_t k = 6, len = 211;
  std::vector<std::vector<std::uint8_t>> srcs(k,
                                              std::vector<std::uint8_t>(len));
  std::vector<const std::uint8_t*> ptrs(k);
  std::vector<std::uint8_t> coeffs(k);
  for (std::size_t j = 0; j < k; ++j) {
    for (auto& x : srcs[j]) x = std::uint8_t(rng.next_u64());
    ptrs[j] = srcs[j].data();
    coeffs[j] = std::uint8_t(rng.next_u64());
  }
  std::vector<std::uint8_t> fused(len, 0), chained(len, 0);
  kn.mul_row_acc(fused.data(), ptrs.data(), coeffs.data(), k, len, false);
  for (std::size_t j = 0; j < k; ++j)
    kn.mul_row_acc(chained.data(), &ptrs[j], &coeffs[j], 1, len, true);
  EXPECT_EQ(fused, chained);
}

TEST(MatrixInvert, IdentityStaysIdentity) {
  std::vector<std::uint8_t> m{1, 0, 0, 0, 1, 0, 0, 0, 1};
  ASSERT_TRUE(gf256_invert_matrix(m, 3));
  EXPECT_EQ(m, (std::vector<std::uint8_t>{1, 0, 0, 0, 1, 0, 0, 0, 1}));
}

TEST(MatrixInvert, InverseTimesOriginalIsIdentity) {
  const std::vector<std::uint8_t> orig{1, 2, 3, 4, 5, 6, 7, 8, 10};
  auto inv = orig;
  ASSERT_TRUE(gf256_invert_matrix(inv, 3));
  // Multiply orig * inv.
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      std::uint8_t acc = 0;
      for (std::size_t k = 0; k < 3; ++k)
        acc ^= GF256::mul(orig[r * 3 + k], inv[k * 3 + c]);
      EXPECT_EQ(acc, r == c ? 1 : 0) << r << "," << c;
    }
  }
}

TEST(MatrixInvert, SingularDetected) {
  // Two identical rows.
  std::vector<std::uint8_t> m{1, 2, 3, 1, 2, 3, 0, 1, 1};
  EXPECT_FALSE(gf256_invert_matrix(m, 3));
}

}  // namespace
}  // namespace memfss::erasure
