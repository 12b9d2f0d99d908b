// CRC32C, the one payload integrity checksum (hash/hashes.hpp): an
// SSE4.2 arm that folds 8 bytes per `crc32` instruction, and a
// byte-table arm for every other host and for MEMFSS_FORCE_SCALAR.
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

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);  // unaligned little-endian load
    c = _mm_crc32_u64(c, word);
  }
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
