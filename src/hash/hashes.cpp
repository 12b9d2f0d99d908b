#include "hash/hashes.hpp"

namespace memfss::hash {

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

}  // namespace memfss::hash
