// Hash functions: placement scores and digests, and the payload
// integrity checksum.
//
// Placement hashes a string key once, with FNV-1a (key_digest()), and
// scores every (server or class, digest) pair with mix64(), a 64-bit
// splitmix finalizer. Both HRW layers (hrw.hpp, class_hrw.hpp) use that
// one score; DESIGN.md §5 says why the Thaler-Ravishankar LCG score is
// not offered.
//
// Integrity uses crc32c() alone: it is the checksum of every
// materialized payload (kvstore::Blob), of the erasure-coded manifest
// and of every wire-frame body. FNV-1a never hashes value bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace memfss::hash {

/// 64-bit mix of two values (server id, key digest) into a score.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

/// FNV-1a over bytes; stable across platforms.
std::uint64_t fnv1a(std::string_view bytes);

/// Digest a string key for use with mix64.
std::uint64_t key_digest(std::string_view key);

/// Incremental FNV-1a: start from fnv1a_seed(), fold bytes (or the decimal
/// rendering of an integer) in one at a time. Folding the same byte
/// sequence yields exactly fnv1a() of the equivalent string, so composite
/// keys ("i<ino>:<idx>") can be digested without materializing the string.
constexpr std::uint64_t fnv1a_seed() { return 0xcbf29ce484222325ull; }
constexpr std::uint64_t fnv1a_byte(std::uint64_t h, unsigned char c) {
  return (h ^ c) * 0x100000001b3ull;
}

/// Fold the decimal digits of `value` (no sign, no padding) into `h`.
std::uint64_t fnv1a_decimal(std::uint64_t h, std::uint64_t value);

/// CRC32C (Castagnoli: reflected polynomial 0x82F63B78, initial value
/// and final xor 0xFFFFFFFF) of `n` bytes at `data`, which need no
/// alignment; crc32c("123456789") == 0xE3069283 and zero bytes give 0.
/// Three arms compute the identical value:
///  - "vpclmulqdq": from 256 bytes up, carry-less multiplies fold
///    256-byte blocks into four zmm accumulators (A * x^D mod P moves
///    a 128-bit lane D bits forward; the multipliers x^(D+63) mod P and
///    x^(D-1) mod P are computed at compile time from the polynomial),
///    which collapse into one 128-bit lane that `crc32` finishes with
///    the tail bytes; shorter inputs run the sse4.2 arm;
///  - "sse4.2": `crc32` over 8 bytes per step in three independent
///    chains (lanes of 8192, then 256, bytes, spliced with zero-shift
///    tables);
///  - "table": a 256-entry byte table.
/// The arm is chosen once, at first use, from CPUID and
/// MEMFSS_FORCE_SCALAR (common/cpu.hpp), as the GF(2^8) kernels are.
std::uint32_t crc32c(const void* data, std::size_t n);

/// Name of the arm crc32c() runs, one of crc32c_kernel_names().
const char* crc32c_kernel_name();

/// Every arm this build has, in selection order ("vpclmulqdq",
/// "sse4.2", "table" on x86-64; "table" elsewhere), whether or not this
/// host can run it: tests and benches iterate it, so a new arm cannot
/// go untested.
std::span<const char* const> crc32c_kernel_names();

/// One arm by name, independent of the active selection, or nullptr if
/// this host cannot run it (or the name is unknown), so tests can hold
/// every arm to the same vectors.
using Crc32cFn = std::uint32_t (*)(const void* data, std::size_t n);
Crc32cFn crc32c_kernel_by_name(std::string_view name);

}  // namespace memfss::hash
