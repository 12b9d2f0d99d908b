// CRC32C, the one payload integrity checksum (hash/hashes.hpp), in
// three arms that compute the identical value:
//  - vpclmulqdq: carry-less folding of 256-byte blocks in four zmm
//    accumulators, finished by `crc32` (inputs of 256 bytes and more);
//  - sse4.2: three independent `crc32` chains over 8 bytes per step,
//    spliced with zero-shift tables;
//  - table: a byte table, for every other host and for
//    MEMFSS_FORCE_SCALAR.
// Every constant is computed at compile time from the polynomial.
#include <array>
#include <cstring>

#include "common/cpu.hpp"
#include "hash/hashes.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define MEMFSS_CRC32C_X86 1
#endif

namespace memfss::hash {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // Castagnoli, reflected

/// One zero bit shifted through the register: in reflected order, the
/// register times x mod P.
constexpr std::uint32_t times_x(std::uint32_t c) {
  return (c >> 1) ^ (kPoly & (0u - (c & 1u)));
}

/// table[b]: the CRC register after shifting byte b through it.
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = times_x(c);
    t[b] = c;
  }
  return t;
}

constexpr auto kTable = make_table();

std::uint32_t crc32c_table(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) c = (c >> 8) ^ kTable[(c ^ p[i]) & 0xffu];
  return ~c;
}

#ifdef MEMFSS_CRC32C_X86

// The `crc32` instruction has a latency of three cycles and a
// throughput of one per cycle, so one dependency chain runs at a third
// of the hardware's rate. The SSE4.2 arm therefore splits a run of 3*N
// bytes into three N-byte lanes, runs one chain per lane (lanes two and
// three start from a zero register), and splices them: the register of
// A||B is the register of A shifted through |B| zero bytes, xor the
// register of B. This is Mark Adler's crc32c.c construction, with
// N = 8192 for long runs and N = 256 for what is left.
constexpr std::size_t kLong = 8192;
constexpr std::size_t kShort = 256;

/// Shifts a CRC register through N zero bytes. The register is linear
/// over GF(2), so the shift is the xor of four byte lookups:
/// table[j][b] is the shifted register that held b << 8j.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

template <std::size_t N>
constexpr ShiftTable make_shift_table() {
  std::array<std::uint32_t, 32> bit{};  // each single-bit register, shifted
  for (unsigned i = 0; i < 32; ++i) {
    std::uint32_t c = 1u << i;
    for (std::size_t z = 0; z < N; ++z) c = (c >> 8) ^ kTable[c & 0xffu];
    bit[i] = c;
  }
  ShiftTable t{};
  for (unsigned j = 0; j < 4; ++j)
    for (unsigned b = 0; b < 256; ++b)
      for (unsigned i = 0; i < 8; ++i)
        if (b & (1u << i)) t[j][b] ^= bit[8 * j + i];
  return t;
}

constexpr ShiftTable kShiftLong = make_shift_table<kLong>();
constexpr ShiftTable kShiftShort = make_shift_table<kShort>();

inline std::uint32_t shift(const ShiftTable& t, std::uint32_t c) {
  return t[0][c & 0xffu] ^ t[1][(c >> 8) & 0xffu] ^ t[2][(c >> 16) & 0xffu] ^
         t[3][c >> 24];
}

__attribute__((target("sse4.2"))) inline std::uint64_t load_crc(
    std::uint64_t c, const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, 8);  // unaligned little-endian load
  return _mm_crc32_u64(c, word);
}

/// Fold every whole run of 3*N bytes at p into c, three chains at once.
template <std::size_t N>
__attribute__((target("sse4.2"))) inline std::uint64_t fold_runs(
    std::uint64_t c, const std::uint8_t*& p, std::size_t& n,
    const ShiftTable& t) {
  for (; n >= 3 * N; p += 3 * N, n -= 3 * N) {
    std::uint64_t c1 = 0, c2 = 0;
    for (std::size_t i = 0; i < N; i += 8) {
      c = load_crc(c, p + i);
      c1 = load_crc(c1, p + N + i);
      c2 = load_crc(c2, p + 2 * N + i);
    }
    c = shift(t, static_cast<std::uint32_t>(c)) ^ c1;
    c = shift(t, static_cast<std::uint32_t>(c)) ^ c2;
  }
  return c;
}

/// The last n bytes into register c, 8 and then 1 at a time, and the
/// final inversion.
__attribute__((target("sse4.2"))) inline std::uint32_t finish(
    std::uint64_t c, const std::uint8_t* p, std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) c = load_crc(c, p);
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = 0xffffffffu;
  c = fold_runs<kLong>(c, p, n, kShiftLong);
  c = fold_runs<kShort>(c, p, n, kShiftShort);
  return finish(c, p, n);
}

// The VPCLMULQDQ arm folds instead of chaining. The register a
// message leaves from a zero start depends only on the message
// polynomial mod P, so a 128-bit accumulator A that ends D bits before
// the end of block B moves onto B as A * x^D mod P, xored into B, and
// the bytes between never pass through `crc32`. Loaded little-endian,
// a reflected 128-bit lane holds its highest-degree coefficient in bit
// 0: its low 64 bits are L * x^64 and its high 64 bits are H, so
// A * x^D = L * x^(D+64) + H * x^D. PCLMULQDQ multiplies L (or H) by a
// 64-bit constant; in reflected order its product lands one degree
// low, so the constants are x^(D+63) mod P for L and x^(D-1) mod P
// for H, each bit-reversed into the top half of its 64-bit lane.
//
// Four zmm accumulators (sixteen lanes) cover each 256-byte block and
// fold forward by D = 2048 bits; at the end they collapse into one zmm
// with D = 512, its four lanes into one with D = 128, and the leftover
// 16-byte blocks fold in with D = 128. The `crc32` instruction then runs
// the last accumulator, taken as 16 message bytes, from a zero register,
// and after it the tail bytes. The preset register 0xFFFFFFFF is xored
// into the first 4 message bytes, which is the same as starting from it.
constexpr std::size_t kFoldBlock = 256;

/// x^n mod P, bit-reversed (the register layout of kTable) into the
/// top half of a 64-bit lane.
constexpr std::uint64_t xpow_mod_p(std::size_t n) {
  std::uint32_t r = 0x80000000u;  // x^0
  for (std::size_t i = 0; i < n; ++i) r = times_x(r);
  return std::uint64_t{r} << 32;
}

/// The two multipliers that move a lane forward by d bits.
struct FoldConsts {
  std::uint64_t lo, hi;
};

constexpr FoldConsts fold_consts(std::size_t d) {
  return {xpow_mod_p(d + 63), xpow_mod_p(d - 1)};
}

constexpr FoldConsts kFold2048 = fold_consts(2048);
constexpr FoldConsts kFold512 = fold_consts(512);
constexpr FoldConsts kFold128 = fold_consts(128);

__attribute__((target("pclmul"))) inline __m128i lane_consts(FoldConsts k) {
  return _mm_set_epi64x(static_cast<long long>(k.hi),
                        static_cast<long long>(k.lo));
}

__attribute__((target("avx512f"))) inline __m512i zmm_consts(FoldConsts k) {
  return _mm512_set4_epi64(
      static_cast<long long>(k.hi), static_cast<long long>(k.lo),
      static_cast<long long>(k.hi), static_cast<long long>(k.lo));
}

/// a moved forward by the distance of k, xor b, in every 128-bit lane.
__attribute__((target("avx512f,vpclmulqdq"))) inline __m512i fold512(
    __m512i a, __m512i k, __m512i b) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(a, k, 0x00),
                                   _mm512_clmulepi64_epi128(a, k, 0x11), b,
                                   0x96);
}

__attribute__((target("pclmul"))) inline __m128i fold128(__m128i a, __m128i k,
                                                         __m128i b) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       b);
}

__attribute__((target("sse4.2,pclmul,avx512f,vpclmulqdq"))) std::uint32_t
crc32c_vpclmulqdq(const void* data, std::size_t n) {
  if (n < kFoldBlock) return crc32c_sse42(data, n);
  const auto* p = static_cast<const std::uint8_t*>(data);
  const __m512i preset = _mm512_zextsi128_si512(_mm_cvtsi32_si128(-1));
  __m512i a0 = _mm512_xor_si512(_mm512_loadu_si512(p), preset);
  __m512i a1 = _mm512_loadu_si512(p + 64);
  __m512i a2 = _mm512_loadu_si512(p + 128);
  __m512i a3 = _mm512_loadu_si512(p + 192);
  p += kFoldBlock;
  n -= kFoldBlock;
  const __m512i k2048 = zmm_consts(kFold2048);
  for (; n >= kFoldBlock; p += kFoldBlock, n -= kFoldBlock) {
    a0 = fold512(a0, k2048, _mm512_loadu_si512(p));
    a1 = fold512(a1, k2048, _mm512_loadu_si512(p + 64));
    a2 = fold512(a2, k2048, _mm512_loadu_si512(p + 128));
    a3 = fold512(a3, k2048, _mm512_loadu_si512(p + 192));
  }
  const __m512i k512 = zmm_consts(kFold512);
  a3 = fold512(fold512(fold512(a0, k512, a1), k512, a2), k512, a3);
  const __m128i k128 = lane_consts(kFold128);
  alignas(64) __m128i lanes[4];
  _mm512_store_si512(lanes, a3);
  __m128i x = lanes[0];
  for (int i = 1; i < 4; ++i) x = fold128(x, k128, lanes[i]);
  for (; n >= 16; p += 16, n -= 16)
    x = fold128(x, k128, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  std::uint64_t c = _mm_crc32_u64(0, static_cast<std::uint64_t>(
                                         _mm_cvtsi128_si64(x)));
  c = _mm_crc32_u64(c, static_cast<std::uint64_t>(_mm_extract_epi64(x, 1)));
  return finish(c, p, n);
}

#endif  // MEMFSS_CRC32C_X86

/// Every arm, in selection order, with the CPU features it needs (a
/// cpu_has_all list).
struct Arm {
  const char* name;
  Crc32cFn fn;
  std::string_view needs;
};

constexpr Arm kArms[] = {
#ifdef MEMFSS_CRC32C_X86
    {"vpclmulqdq", crc32c_vpclmulqdq, "vpclmulqdq avx512f pclmul sse4.2"},
    {"sse4.2", crc32c_sse42, "sse4.2"},
#endif
    {"table", crc32c_table, ""},
};

constexpr auto kNames = [] {
  std::array<const char*, std::size(kArms)> names{};
  for (std::size_t i = 0; i < names.size(); ++i) names[i] = kArms[i].name;
  return names;
}();

const Arm& select_arm() {
  const Arm& table = kArms[std::size(kArms) - 1];
  if (force_scalar()) return table;
  for (const Arm& arm : kArms)
    if (cpu_has_all(arm.needs)) return arm;
  return table;
}

const Arm& active_arm() {
  static const Arm& a = select_arm();
  return a;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t n) {
  return active_arm().fn(data, n);
}

const char* crc32c_kernel_name() { return active_arm().name; }

std::span<const char* const> crc32c_kernel_names() { return kNames; }

Crc32cFn crc32c_kernel_by_name(std::string_view name) {
  for (const Arm& arm : kArms)
    if (name == arm.name && cpu_has_all(arm.needs)) return arm.fn;
  return nullptr;
}

}  // namespace memfss::hash
