// Blob: a stored value that is either materialized (real bytes, used by
// unit tests and the standalone examples) or *ghost* (size-only
// accounting, used by cluster experiments where simulated datasets reach
// hundreds of GB and holding real payloads would be absurd). Both kinds
// carry a checksum so corruption tests work uniformly.
//
// A materialized blob's checksum is hash::crc32c of its bytes
// (zero-extended to the u64 field), computed once where the payload is
// born; copies carry it along, so later layers (the erasure-coded
// manifest, DESIGN.md §14, and get responses on the wire) reuse it
// instead of hashing the bytes again. A ghost's checksum is
// hash::mix64(size, tag): there are no bytes to hash.
//
// The bytes are a RecycledBytes, so buffers of at least
// kRecycleMinBytes (4 KiB) go through the process buffer recycler
// (common/buffer_recycler.hpp, DESIGN.md §11): a copy takes its buffer
// from it, and destruction and copy or move assignment park the buffer
// being dropped there. A buffer freed on one thread is then the next one
// taken on any thread, instead of a hole stranded in that thread's
// malloc arena. Smaller buffers and ghosts (which own no bytes) never
// reach it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer_recycler.hpp"
#include "common/types.hpp"

namespace memfss::kvstore {

class Blob {
 public:
  /// A blob backed by real bytes.
  static Blob materialized(std::vector<std::uint8_t> bytes);

  /// A size-only blob; `tag` stands in for the content (checksummed).
  static Blob ghost(Bytes size, std::uint64_t tag = 0);

  Bytes size() const { return size_; }
  bool is_ghost() const { return data_.vec.empty() && size_ > 0; }
  std::uint64_t checksum() const { return checksum_; }
  std::span<const std::uint8_t> bytes() const { return data_.vec; }

  bool operator==(const Blob& o) const {
    return size_ == o.size_ && checksum_ == o.checksum_ && data_ == o.data_;
  }

  /// Take `next`'s content into this blob's own buffer when both are
  /// materialized and the same size, and return true; otherwise leave
  /// this blob unchanged and return false (the caller then moves
  /// `next` in). A store overwrite uses it so the resident buffer stays
  /// where it was allocated (DESIGN.md §11).
  bool overwrite_same_size(const Blob& next);

  /// Whether the stored checksum still matches the content. Ghost blobs
  /// are checksum-carrying only (nothing to recompute), so they always
  /// verify unless corrupt_for_test() was called.
  bool verify() const;

  /// Test hook: damage the blob (bit-flip for materialized data, checksum
  /// scramble for ghosts) so scrubbing/fault-injection tests have
  /// something to find.
  void corrupt_for_test();

 private:
  Bytes size_ = 0;
  std::uint64_t checksum_ = 0;
  bool corrupted_ = false;  ///< test-injection flag (ghost corruption)
  RecycledBytes data_;
};

}  // namespace memfss::kvstore
