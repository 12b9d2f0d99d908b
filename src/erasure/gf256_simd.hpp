// Runtime-dispatched SIMD kernel for the GF(2^8) hot loop, the fused
// stripe pass every Reed-Solomon encode and decode runs (DESIGN.md
// §14). The scalar backend is the property-tested oracle; the SSSE3 and
// AVX2 backends implement the ISA-L-style nibble-shuffle multiply: a
// coefficient c becomes two 16-entry tables (products of c with the low
// and high nibble of every byte), applied with PSHUFB so one shuffle
// pair multiplies 16/32 bytes at once. The 256 table pairs are
// constant-initialized at compile time, so the block loops load them
// with no call and no static guard. The GFNI backend needs no tables:
// GF2P8MULB multiplies 64 bytes by a broadcast coefficient in the same
// field (polynomial 0x11b).
//
// Selection happens once, at first use, from CPUID (gfni + avx512bw,
// then avx2, then ssse3, then scalar) -- or is pinned to
// scalar by setting MEMFSS_FORCE_SCALAR to anything but "" / "0" (CI
// uses this to exercise the fallback arm under the sanitizers); both
// answers come from common/cpu.hpp, shared with hash::crc32c. Tests
// and benches can also fetch a specific backend by name regardless of
// the host selection and compare backends directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace memfss::erasure {

/// One GF(2^8) backend: a raw-pointer kernel so the dispatch indirection
/// sits outside the byte loops. It tolerates n == 0 and arbitrary
/// (unaligned) pointers; dst and src ranges must not overlap.
struct GF256Kernels {
  const char* name;  ///< one of gf256_kernel_names()

  /// One stripe pass: fuse k source rows into one destination row,
  ///   accumulate == false:  dst[i]  = XOR_j coeffs[j] * srcs[j][i]
  ///   accumulate == true :  dst[i] ^= XOR_j coeffs[j] * srcs[j][i]
  /// for i in [0, n), j in [0, k). The destination block is loaded and
  /// stored once per SIMD lane regardless of k (vs. k round trips when
  /// applying one source row per pass), which is where the stripe-coding
  /// speedup beyond the multiply itself comes from. k == 0 zero-fills
  /// (or leaves) dst; k == 1 with accumulate is dst[i] ^= c * src[i].
  void (*mul_row_acc)(std::uint8_t* dst, const std::uint8_t* const* srcs,
                      const std::uint8_t* coeffs, std::size_t k,
                      std::size_t n, bool accumulate);
};

/// The backend selected for this process (CPUID + MEMFSS_FORCE_SCALAR,
/// decided once on first call and stable afterwards).
const GF256Kernels& gf256_active_kernels();

/// Name of the active backend, one of gf256_kernel_names().
const char* gf256_kernel_name();

/// Every backend this build has, in selection order ("gfni", "avx2",
/// "ssse3", "scalar" on x86; "scalar" elsewhere), whether or not this
/// host can run it: tests and benches iterate it, so a new backend
/// cannot go untested.
std::span<const char* const> gf256_kernel_names();

/// Fetch a backend by name, independent of the active selection.
/// Returns nullptr if this host cannot run it (or the name is unknown),
/// so tests can iterate every supported backend and compare against the
/// scalar oracle.
const GF256Kernels* gf256_kernels_by_name(std::string_view name);

}  // namespace memfss::erasure
