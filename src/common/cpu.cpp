#include "common/cpu.hpp"

#include <cstdlib>

namespace memfss {

bool force_scalar() {
  const char* v = std::getenv("MEMFSS_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool cpu_has(std::string_view feature) {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports takes only string literals, hence the chain.
  // The "avx512*" answers include the OS check (XCR0 saves the zmm
  // state), which is why every zmm arm also asks for one of them next to
  // its instruction's own feature.
  __builtin_cpu_init();
  if (feature == "ssse3") return __builtin_cpu_supports("ssse3");
  if (feature == "sse4.2") return __builtin_cpu_supports("sse4.2");
  if (feature == "pclmul") return __builtin_cpu_supports("pclmul");
  if (feature == "avx2") return __builtin_cpu_supports("avx2");
  if (feature == "avx512f") return __builtin_cpu_supports("avx512f");
  if (feature == "avx512bw") return __builtin_cpu_supports("avx512bw");
  if (feature == "gfni") return __builtin_cpu_supports("gfni");
  if (feature == "vpclmulqdq") return __builtin_cpu_supports("vpclmulqdq");
#endif
  (void)feature;
  return false;
}

bool cpu_has_all(std::string_view features) {
  while (!features.empty()) {
    const std::size_t end = features.find(' ');
    if (end != 0 && !cpu_has(features.substr(0, end))) return false;
    if (end == std::string_view::npos) break;
    features.remove_prefix(end + 1);
  }
  return true;
}

}  // namespace memfss
