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

/// Whether this CPU runs `feature` ("ssse3", "sse4.2", "avx2"). Always
/// false for other names and on non-x86 hosts.
bool cpu_has(std::string_view feature);

}  // namespace memfss
