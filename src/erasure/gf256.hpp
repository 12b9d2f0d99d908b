// GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11b),
// via log/antilog tables built at static-init time. Foundation for the
// Reed-Solomon coder behind the rt runtime's erasure-coded redundancy
// mode (DESIGN.md §14) -- the storage mode the MemFSS paper motivates in
// §III-E, now wired into the serving path rather than future work.
//
// The bulk kernel (the stripe-pass mul_row_acc) dispatches at runtime
// to a SIMD backend (AVX2/SSSE3 nibble shuffle, scalar fallback); see
// gf256_simd.hpp for the dispatch model and the MEMFSS_FORCE_SCALAR
// override.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace memfss::erasure {

class GF256 {
 public:
  static std::uint8_t add(std::uint8_t a, std::uint8_t b) {
    return a ^ b;  // characteristic-2 field: add == subtract == xor
  }
  static std::uint8_t sub(std::uint8_t a, std::uint8_t b) { return a ^ b; }

  static std::uint8_t mul(std::uint8_t a, std::uint8_t b);
  static std::uint8_t div(std::uint8_t a, std::uint8_t b);  ///< b != 0
  static std::uint8_t inv(std::uint8_t a);                  ///< a != 0
  static std::uint8_t exp(unsigned e);                      ///< generator^e
  static std::uint8_t pow(std::uint8_t a, unsigned e);

 private:
  struct Tables {
    std::array<std::uint8_t, 256> log;
    std::array<std::uint8_t, 512> alog;  // doubled to skip a mod
    Tables();
  };
  static const Tables& tables();
};

/// Invert a k x k matrix over GF(256) in place (Gauss-Jordan).
/// Returns false if singular. `m` is row-major, size k*k.
bool gf256_invert_matrix(std::span<std::uint8_t> m, std::size_t k);

}  // namespace memfss::erasure
