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
  __builtin_cpu_init();
  if (feature == "ssse3") return __builtin_cpu_supports("ssse3");
  if (feature == "sse4.2") return __builtin_cpu_supports("sse4.2");
  if (feature == "avx2") return __builtin_cpu_supports("avx2");
#endif
  (void)feature;
  return false;
}

}  // namespace memfss
