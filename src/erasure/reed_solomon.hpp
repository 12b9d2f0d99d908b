// Systematic Reed-Solomon erasure coding over GF(2^8).
//
// Splits a block into k data shards and adds m parity shards; any k of the
// k+m shards reconstruct the original data. The encoding matrix is a
// Vandermonde matrix row-reduced so its top k x k block is the identity
// (data shards are stored verbatim; only parity costs arithmetic).
//
// This is the storage-redundancy mode the MemFSS paper motivates in
// §III-E: full replication doubles/triples memory footprint, which an
// in-memory FS cannot afford; RS(k, m) costs only m/k extra. Since the
// SIMD kernel work (DESIGN.md §14) it is cheap enough to serve as the
// rt runtime's per-tenant redundancy mode (rt/ec.hpp), not just a sim
// extension.
//
// Coding is structured as one pass per *output* row: a row-major walk of
// the matrix feeds all k source shards through GF256Kernels::mul_row_acc
// into each destination, so destination bytes are loaded/stored once per
// row instead of once per (row, source) pair.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.hpp"

namespace memfss::erasure {

struct GF256Kernels;

/// Bytes per shard for a `len`-byte payload split k ways: len / k rounded
/// up, written so a len near 2^64 cannot wrap it. k >= 1.
constexpr std::uint64_t shard_size(std::uint64_t len, std::uint64_t k) {
  return len / k + (len % k != 0);
}

class ReedSolomon {
 public:
  /// k data shards, m parity shards; k >= 1, m >= 0, k + m <= 255.
  /// `kernels` pins a specific GF(2^8) backend (tests/benches comparing
  /// backends); nullptr uses the process-wide runtime selection.
  explicit ReedSolomon(std::size_t k, std::size_t m,
                       const GF256Kernels* kernels = nullptr);

  std::size_t data_shards() const { return k_; }
  std::size_t parity_shards() const { return m_; }
  std::size_t total_shards() const { return k_ + m_; }
  const char* kernel_name() const;

  /// Shard size for a payload of `len` bytes (payload zero-padded to a
  /// multiple of k).
  std::size_t shard_size(std::size_t len) const {
    return erasure::shard_size(len, k_);
  }

  /// Split + encode: returns k+m shards, each shard_size(data.size()) long.
  std::vector<std::vector<std::uint8_t>> encode(
      std::span<const std::uint8_t> data) const;

  /// Allocation-free encode into caller-owned buffers: `shards` holds
  /// k+m pointers, each to `ss` == shard_size(data.size()) writable
  /// bytes (disjoint from `data` and from each other). Data shards get
  /// the payload slices (zero-padded); parity shards are coded in one
  /// row pass each. This is the path the rt write path uses so a put
  /// can code straight into its k+m sibling buffers.
  Status encode_into(std::span<const std::uint8_t> data,
                     std::uint8_t* const* shards, std::size_t ss) const;

  /// Reconstruct the original payload from any >= k shards.
  /// `shards[i]` empty => shard i missing. `original_len` trims padding.
  Result<std::vector<std::uint8_t>> decode(
      const std::vector<std::vector<std::uint8_t>>& shards,
      std::size_t original_len) const;

  /// Rebuild every missing shard in place (for repairing a lost node
  /// without reassembling the whole payload). Fails if < k present.
  /// Allocates nothing beyond the rebuilt shards' growth for stripes of
  /// up to 16 shards.
  Status reconstruct(std::span<std::vector<std::uint8_t>> shards) const;

 private:
  std::size_t k_, m_;
  const GF256Kernels* kernels_;  ///< never null after construction
  // Row-major (k+m) x k systematic encoding matrix.
  std::vector<std::uint8_t> matrix_;

  const std::uint8_t* row(std::size_t r) const { return &matrix_[r * k_]; }
};

}  // namespace memfss::erasure
