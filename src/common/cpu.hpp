// Runtime CPU dispatch shared by every kernel that has a SIMD arm and a
// portable one (the GF(2^8) coding kernels, DESIGN.md §14, and the
// CRC32C integrity kernel). Each kernel picks its arm once, at first
// use, from these two answers.
#pragma once

#include <string_view>

namespace memfss {

/// Whether MEMFSS_FORCE_SCALAR pins every dispatched kernel to its
/// portable arm: set to anything but "" or "0". CI uses it to run the
/// fallback arms under the sanitizers.
bool force_scalar();

/// Whether this CPU runs `feature`. Known names: "ssse3", "sse4.2",
/// "pclmul", "avx2", "avx512f", "avx512bw", "gfni" (GF2P8MULB) and
/// "vpclmulqdq" (carry-less multiply on ymm/zmm lanes). Always false for
/// other names and on non-x86 hosts.
bool cpu_has(std::string_view feature);

/// Whether this CPU runs every feature in the space-separated list
/// `features` (each a cpu_has name); "" holds everywhere. A kernel arm
/// names what it needs this way.
bool cpu_has_all(std::string_view features);

}  // namespace memfss
