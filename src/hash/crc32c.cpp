// CRC32C, the one payload integrity checksum (hash/hashes.hpp): an
// SSE4.2 arm that runs three independent `crc32` chains over 8 bytes per
// step and splices them with zero-shift tables, and a byte-table arm
// for every other host and for MEMFSS_FORCE_SCALAR.
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

/// table[b]: the CRC register after shifting byte b through it.
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ (kPoly & (0u - (c & 1u)));
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

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = 0xffffffffu;
  c = fold_runs<kLong>(c, p, n, kShiftLong);
  c = fold_runs<kShort>(c, p, n, kShiftShort);
  for (; n >= 8; p += 8, n -= 8) c = load_crc(c, p);
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

#endif  // MEMFSS_CRC32C_X86

Crc32cFn select_kernel() {
  if (force_scalar()) return crc32c_table;
#ifdef MEMFSS_CRC32C_X86
  if (cpu_has("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_table;
}

Crc32cFn active_kernel() {
  static const Crc32cFn k = select_kernel();
  return k;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t n) {
  return active_kernel()(data, n);
}

const char* crc32c_kernel_name() {
  return active_kernel() == crc32c_table ? "table" : "sse4.2";
}

Crc32cFn crc32c_kernel_by_name(std::string_view name) {
  if (name == "table") return crc32c_table;
#ifdef MEMFSS_CRC32C_X86
  if (name == "sse4.2" && cpu_has("sse4.2")) return crc32c_sse42;
#endif
  return nullptr;
}

}  // namespace memfss::hash
