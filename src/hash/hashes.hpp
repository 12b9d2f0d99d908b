// Hash functions used by the placement schemes.
//
// Two families:
//  - tr_weight(): the 31-bit linear-congruential "random weight" function
//    from Thaler & Ravishankar (1998), the function the MemFSS paper says
//    it keeps for its weighted scheme.
//  - mix64()/hash_bytes(): a 64-bit finalizer-based mixer (xxhash/splitmix
//    style) used as the default score function; better dispersion, same
//    API.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace memfss::hash {

/// Thaler-Ravishankar random-weight function:
///   W(S, K) = (A * ((A * S + B) xor K) + B) mod 2^31
/// with A = 1103515245, B = 12345 (the classic C LCG constants).
/// `server` and `key` are 31-bit quantities; higher bits are folded in.
std::uint32_t tr_weight(std::uint32_t server, std::uint32_t key);

/// 64-bit mix of two values (server id, key digest) into a score.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

/// FNV-1a over bytes; stable across platforms.
std::uint64_t fnv1a(std::string_view bytes);

/// Batch FNV-1a: out[i] = fnv1a(keys[i]) for every i, bit-identical to
/// the one-at-a-time call. Four independent hash chains are advanced in
/// lockstep so the 64-bit multiply latency of one chain hides behind
/// the other three -- FNV's byte-serial dependency chain is the
/// throughput limiter, not memory. A leftover group of two or three
/// keys is interleaved the same way. Requires out.size() >= keys.size().
/// This is the per-stripe-key digest path batched: hashing many sibling
/// /stripe keys per call instead of one per lookup, and the k+m shards
/// of one erasure-coded put in one call (DESIGN.md §14).
void fnv1a_many(std::span<const std::string_view> keys,
                std::span<std::uint64_t> out);

/// Digest a string key for use with mix64/tr_weight.
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

/// Fold a 64-bit digest to the 31-bit domain tr_weight expects.
std::uint32_t fold31(std::uint64_t x);

}  // namespace memfss::hash
