#include "hash/hashes.hpp"

#include <algorithm>
#include <cassert>

namespace memfss::hash {

std::uint32_t tr_weight(std::uint32_t server, std::uint32_t key) {
  constexpr std::uint32_t A = 1103515245u;
  constexpr std::uint32_t B = 12345u;
  constexpr std::uint32_t M = 0x7fffffffu;  // 2^31 - 1 mask
  const std::uint32_t inner = (A * server + B) ^ key;
  return (A * inner + B) & M;
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over the combination; passes avalanche tests.
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t key_digest(std::string_view key) { return fnv1a(key); }

namespace {

/// FNV-1a of `N` keys advanced in lockstep: each iteration advances N
/// *independent* serial dependency chains one byte, so the multiplies
/// pipeline instead of waiting on each other.
template <std::size_t N>
void fnv1a_lanes(const std::string_view* keys, std::uint64_t* out) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h[N];
  std::size_t common = keys[0].size();
#pragma GCC unroll 4
  for (std::size_t j = 0; j < N; ++j) {
    h[j] = fnv1a_seed();
    common = std::min(common, keys[j].size());
  }
  for (std::size_t i = 0; i < common; ++i) {
#pragma GCC unroll 4
    for (std::size_t j = 0; j < N; ++j)
      h[j] = (h[j] ^ static_cast<unsigned char>(keys[j][i])) * kPrime;
  }
  // Uneven tails finish serially (stripe/sibling keys in one batch
  // share a prefix shape, so the common run covers nearly everything).
#pragma GCC unroll 4
  for (std::size_t j = 0; j < N; ++j) {
    for (std::size_t i = common; i < keys[j].size(); ++i)
      h[j] = (h[j] ^ static_cast<unsigned char>(keys[j][i])) * kPrime;
    out[j] = h[j];
  }
}

}  // namespace

void fnv1a_many(std::span<const std::string_view> keys,
                std::span<std::uint64_t> out) {
  assert(out.size() >= keys.size());
  std::size_t g = 0;
  for (; g + 4 <= keys.size(); g += 4) fnv1a_lanes<4>(&keys[g], &out[g]);
  // The leftover group interleaves too: an RS(4,2) stripe is one group
  // of four shards and one of two.
  switch (keys.size() - g) {
    case 3: fnv1a_lanes<3>(&keys[g], &out[g]); break;
    case 2: fnv1a_lanes<2>(&keys[g], &out[g]); break;
    case 1: out[g] = fnv1a(keys[g]); break;
    default: break;
  }
}

std::uint64_t fnv1a_decimal(std::uint64_t h, std::uint64_t value) {
  char digits[20];  // 2^64 has at most 20 decimal digits
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (n > 0) h = fnv1a_byte(h, static_cast<unsigned char>(digits[--n]));
  return h;
}

std::uint32_t fold31(std::uint64_t x) {
  return static_cast<std::uint32_t>((x ^ (x >> 31) ^ (x >> 62)) & 0x7fffffffu);
}

}  // namespace memfss::hash
