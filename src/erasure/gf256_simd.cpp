#include "erasure/gf256_simd.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/cpu.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MEMFSS_GF256_X86 1
#endif

namespace memfss::erasure {

namespace {

// ---------------------------------------------------------------------------
// Nibble product tables: for every coefficient c, 16 products with the
// low nibble and 16 with the high nibble, so mul(c, b) ==
// lo[c][b & 15] ^ hi[c][b >> 4]. 32 bytes per coefficient (one cache
// line pair), 8 KiB total, constant-initialized at compile time, so a
// lookup is a plain load with no static guard and no call -- which lets
// the SIMD block loops keep their accumulators in registers. The SSSE3
// and AVX2 backends shuffle straight out of this layout, and the scalar
// row kernel uses it too.
// ---------------------------------------------------------------------------

/// Shift-and-add product over the AES polynomial 0x11b, the field
/// GF256::mul computes through its log tables.
constexpr std::uint8_t const_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (; b != 0; b >>= 1) {
    if (b & 1) p ^= a;
    a = static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
  }
  return p;
}

struct NibbleTables {
  alignas(32) std::uint8_t t[256][32];
};

constexpr NibbleTables make_nibble_tables() {
  NibbleTables n{};
  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned v = 0; v < 16; ++v) {
      n.t[c][v] = const_mul(static_cast<std::uint8_t>(c),
                            static_cast<std::uint8_t>(v));
      n.t[c][16 + v] = const_mul(static_cast<std::uint8_t>(c),
                                 static_cast<std::uint8_t>(v << 4));
    }
  }
  return n;
}

constexpr NibbleTables kNibbles = make_nibble_tables();

inline const std::uint8_t* nibble_tables(std::uint8_t c) {
  return kNibbles.t[c];
}

// ---------------------------------------------------------------------------
// Scalar backend: the oracle. Byte-at-a-time through the nibble tables.
// ---------------------------------------------------------------------------

void scalar_mul_acc(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                    std::uint8_t c) {
  if (c == 0) return;  // c == 0 hoisted out of the table path
  if (c == 1) {        // c == 1 is a plain xor, no lookups
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const std::uint8_t* tbl = nibble_tables(c);
  for (std::size_t i = 0; i < n; ++i)
    dst[i] ^= tbl[src[i] & 0x0f] ^ tbl[16 + (src[i] >> 4)];
}

void scalar_mul_row_acc(std::uint8_t* dst, const std::uint8_t* const* srcs,
                        const std::uint8_t* coeffs, std::size_t k,
                        std::size_t n, bool accumulate) {
  if (n == 0) return;
  if (!accumulate) std::memset(dst, 0, n);
  for (std::size_t j = 0; j < k; ++j) scalar_mul_acc(dst, srcs[j], n, coeffs[j]);
}

constexpr GF256Kernels kScalar{"scalar", scalar_mul_row_acc};

#ifdef MEMFSS_GF256_X86

// ---------------------------------------------------------------------------
// Vector tails. A SIMD backend's block loop stops at its last whole
// block of B bytes; the r < B bytes left run as one more block over
// scratch rows: each source tail copied and zero-padded to B bytes, and
// the destination tail likewise when accumulating. An output byte
// depends only on the input bytes at its own offset, so the padding
// never reaches the r bytes copied back and the result is bit-identical
// to the scalar rows. Sources go through kTailRows at a time, so the
// scratch stays on the stack whatever k is.
// ---------------------------------------------------------------------------

constexpr std::size_t kTailRows = 8;

template <std::size_t B>
void padded_tail(decltype(GF256Kernels::mul_row_acc) block, std::uint8_t* dst,
                 const std::uint8_t* const* srcs, const std::uint8_t* coeffs,
                 std::size_t k, std::size_t from, std::size_t n,
                 bool accumulate) {
  const std::size_t r = n - from;
  if (r == 0) return;
  alignas(64) std::uint8_t acc[B];
  alignas(64) std::uint8_t rows[kTailRows][B];
  const std::uint8_t* ptrs[kTailRows];
  if (accumulate) {
    std::memcpy(acc, dst + from, r);
    std::memset(acc + r, 0, B - r);
  }
  std::size_t j0 = 0;
  do {  // at least once: k == 0 still zero-fills a non-accumulating row
    const std::size_t rows_n = std::min(kTailRows, k - j0);
    for (std::size_t j = 0; j < rows_n; ++j) {
      std::memcpy(rows[j], srcs[j0 + j] + from, r);
      std::memset(rows[j] + r, 0, B - r);
      ptrs[j] = rows[j];
    }
    block(acc, ptrs, coeffs + j0, rows_n, B, accumulate || j0 > 0);
    j0 += rows_n;
  } while (j0 < k);
  std::memcpy(dst + from, acc, r);
}

// ---------------------------------------------------------------------------
// SSSE3 backend: PSHUFB over 16-byte lanes.
// ---------------------------------------------------------------------------

__attribute__((target("ssse3"))) inline __m128i gf_mul16(
    __m128i s, __m128i lo, __m128i hi, __m128i mask) {
  const __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
  const __m128i h = _mm_shuffle_epi8(
      hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
  return _mm_xor_si128(l, h);
}

__attribute__((target("ssse3"))) void ssse3_mul_row_acc(
    std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, std::size_t k, std::size_t n,
    bool accumulate) {
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    // Two 16-byte accumulators per block: dst touched once per block
    // no matter how many source rows fuse into it.
    __m128i a0 = _mm_setzero_si128(), a1 = _mm_setzero_si128();
    if (accumulate) {
      a0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
      a1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + 16));
    }
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint8_t c = coeffs[j];
      if (c == 0) continue;
      const __m128i s0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[j] + i));
      const __m128i s1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[j] + i + 16));
      if (c == 1) {
        a0 = _mm_xor_si128(a0, s0);
        a1 = _mm_xor_si128(a1, s1);
        continue;
      }
      const std::uint8_t* tbl = nibble_tables(c);
      const __m128i lo =
          _mm_load_si128(reinterpret_cast<const __m128i*>(tbl));
      const __m128i hi =
          _mm_load_si128(reinterpret_cast<const __m128i*>(tbl + 16));
      a0 = _mm_xor_si128(a0, gf_mul16(s0, lo, hi, mask));
      a1 = _mm_xor_si128(a1, gf_mul16(s1, lo, hi, mask));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), a0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), a1);
  }
  padded_tail<32>(ssse3_mul_row_acc, dst, srcs, coeffs, k, i, n, accumulate);
}

constexpr GF256Kernels kSsse3{"ssse3", ssse3_mul_row_acc};

// ---------------------------------------------------------------------------
// AVX2 backend: the same nibble shuffle over 32-byte lanes
// (vpshufb shuffles within each 16-byte half, which is exactly what a
// broadcast 16-entry table wants).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i gf_mul32(__m256i s, __m256i lo,
                                                        __m256i hi,
                                                        __m256i mask) {
  const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
  const __m256i h = _mm256_shuffle_epi8(
      hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
  return _mm256_xor_si256(l, h);
}

__attribute__((target("avx2"))) void avx2_mul_row_acc(
    std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, std::size_t k, std::size_t n,
    bool accumulate) {
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m256i a0 = _mm256_setzero_si256(), a1 = _mm256_setzero_si256();
    if (accumulate) {
      a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    }
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint8_t c = coeffs[j];
      if (c == 0) continue;
      const __m256i s0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i));
      const __m256i s1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(srcs[j] + i + 32));
      if (c == 1) {
        a0 = _mm256_xor_si256(a0, s0);
        a1 = _mm256_xor_si256(a1, s1);
        continue;
      }
      const std::uint8_t* tbl = nibble_tables(c);
      const __m256i lo = _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(tbl)));
      const __m256i hi = _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(tbl + 16)));
      a0 = _mm256_xor_si256(a0, gf_mul32(s0, lo, hi, mask));
      a1 = _mm256_xor_si256(a1, gf_mul32(s1, lo, hi, mask));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), a1);
  }
  padded_tail<64>(avx2_mul_row_acc, dst, srcs, coeffs, k, i, n, accumulate);
}

constexpr GF256Kernels kAvx2{"avx2", avx2_mul_row_acc};

// ---------------------------------------------------------------------------
// GFNI backend: GF2P8MULB multiplies 64 byte pairs per instruction in
// the field of 0x11b, the polynomial const_mul and the log tables reduce
// by, so a coefficient is one broadcast byte and needs no nibble tables.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f,avx512bw,gfni"))) void gfni_mul_row_acc(
    std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, std::size_t k, std::size_t n,
    bool accumulate) {
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    __m512i a0 = _mm512_setzero_si512(), a1 = _mm512_setzero_si512();
    if (accumulate) {
      a0 = _mm512_loadu_si512(dst + i);
      a1 = _mm512_loadu_si512(dst + i + 64);
    }
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint8_t c = coeffs[j];
      if (c == 0) continue;
      __m512i s0 = _mm512_loadu_si512(srcs[j] + i);
      __m512i s1 = _mm512_loadu_si512(srcs[j] + i + 64);
      if (c != 1) {  // c == 1 is a plain xor
        const __m512i cv = _mm512_set1_epi8(static_cast<char>(c));
        s0 = _mm512_gf2p8mul_epi8(s0, cv);
        s1 = _mm512_gf2p8mul_epi8(s1, cv);
      }
      a0 = _mm512_xor_si512(a0, s0);
      a1 = _mm512_xor_si512(a1, s1);
    }
    _mm512_storeu_si512(dst + i, a0);
    _mm512_storeu_si512(dst + i + 64, a1);
  }
  padded_tail<128>(gfni_mul_row_acc, dst, srcs, coeffs, k, i, n, accumulate);
}

constexpr GF256Kernels kGfni{"gfni", gfni_mul_row_acc};

#endif  // MEMFSS_GF256_X86

/// Every backend, in selection order, with the CPU features it needs
/// (a cpu_has_all list).
struct Arm {
  const GF256Kernels* kernels;
  std::string_view needs;
};

constexpr Arm kArms[] = {
#ifdef MEMFSS_GF256_X86
    {&kGfni, "gfni avx512f avx512bw"},
    {&kAvx2, "avx2"},
    {&kSsse3, "ssse3"},
#endif
    {&kScalar, ""},
};

constexpr auto kNames = [] {
  std::array<const char*, std::size(kArms)> names{};
  for (std::size_t i = 0; i < names.size(); ++i)
    names[i] = kArms[i].kernels->name;
  return names;
}();

const GF256Kernels& select_kernels() {
  if (force_scalar()) return kScalar;
  for (const Arm& arm : kArms)
    if (cpu_has_all(arm.needs)) return *arm.kernels;
  return kScalar;
}

}  // namespace

const GF256Kernels& gf256_active_kernels() {
  static const GF256Kernels& k = select_kernels();
  return k;
}

const char* gf256_kernel_name() { return gf256_active_kernels().name; }

std::span<const char* const> gf256_kernel_names() { return kNames; }

const GF256Kernels* gf256_kernels_by_name(std::string_view name) {
  for (const Arm& arm : kArms)
    if (name == arm.kernels->name && cpu_has_all(arm.needs))
      return arm.kernels;
  return nullptr;
}

}  // namespace memfss::erasure
