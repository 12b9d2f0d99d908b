#include "erasure/gf256.hpp"

#include <cassert>
#include <utility>

#include "common/small_array.hpp"

namespace memfss::erasure {

GF256::Tables::Tables() {
  // Generator 3 is primitive for 0x11b.
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    alog[i] = static_cast<std::uint8_t>(x);
    log[x] = static_cast<std::uint8_t>(i);
    // multiply x by 3 = x + 2x in GF(2^8)
    unsigned x2 = x << 1;
    if (x2 & 0x100) x2 ^= 0x11b;
    x = x2 ^ x;
  }
  for (unsigned i = 255; i < 512; ++i) alog[i] = alog[i - 255];
  log[0] = 0;  // undefined; guarded by callers
}

const GF256::Tables& GF256::tables() {
  static const Tables t;
  return t;
}

std::uint8_t GF256::mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.alog[static_cast<unsigned>(t.log[a]) + t.log[b]];
}

std::uint8_t GF256::div(std::uint8_t a, std::uint8_t b) {
  assert(b != 0);
  if (a == 0) return 0;
  const auto& t = tables();
  return t.alog[static_cast<unsigned>(t.log[a]) + 255 - t.log[b]];
}

std::uint8_t GF256::inv(std::uint8_t a) {
  assert(a != 0);
  const auto& t = tables();
  return t.alog[255 - t.log[a]];
}

std::uint8_t GF256::exp(unsigned e) { return tables().alog[e % 255]; }

std::uint8_t GF256::pow(std::uint8_t a, unsigned e) {
  if (a == 0) return e == 0 ? 1 : 0;
  const auto& t = tables();
  return t.alog[(static_cast<unsigned>(t.log[a]) * e) % 255];
}

bool gf256_invert_matrix(std::span<std::uint8_t> m, std::size_t k) {
  assert(m.size() == k * k);
  // Augment with identity, run Gauss-Jordan, read out the right half.
  // Inline for k <= 16.
  SmallArray<std::uint8_t, 2 * 16 * 16> aug(k * 2 * k);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) aug[r * 2 * k + c] = m[r * k + c];
    aug[r * 2 * k + k + r] = 1;
  }
  for (std::size_t col = 0; col < k; ++col) {
    // Find a pivot.
    std::size_t pivot = col;
    while (pivot < k && aug[pivot * 2 * k + col] == 0) ++pivot;
    if (pivot == k) return false;  // singular
    if (pivot != col) {
      for (std::size_t c = 0; c < 2 * k; ++c)
        std::swap(aug[pivot * 2 * k + c], aug[col * 2 * k + c]);
    }
    // Normalize the pivot row.
    const std::uint8_t piv = aug[col * 2 * k + col];
    const std::uint8_t piv_inv = GF256::inv(piv);
    for (std::size_t c = 0; c < 2 * k; ++c)
      aug[col * 2 * k + c] = GF256::mul(aug[col * 2 * k + c], piv_inv);
    // Eliminate the column elsewhere.
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col) continue;
      const std::uint8_t f = aug[r * 2 * k + col];
      if (f == 0) continue;
      for (std::size_t c = 0; c < 2 * k; ++c)
        aug[r * 2 * k + c] ^= GF256::mul(f, aug[col * 2 * k + c]);
    }
  }
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c)
      m[r * k + c] = aug[r * 2 * k + k + c];
  return true;
}

}  // namespace memfss::erasure
