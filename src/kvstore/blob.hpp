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
// The bytes are immutable and shared (SharedBytes,
// common/buffer_recycler.hpp, DESIGN.md §11): copying a Blob hands out
// another share of the same buffer, so a store get or a put of a
// caller's Blob copies no bytes. Whoever drops the last share parks the
// buffer in the process recycler (4 KiB and up) and keeps its node for
// the next Blob. Nothing changes bytes a share can see:
// overwrite_same_size() writes in place only through the sole share,
// and corrupt_for_test() clones a shared buffer before it flips a bit.
// Ghosts own no bytes and no share.
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
  bool is_ghost() const { return data_.empty() && size_ > 0; }
  std::uint64_t checksum() const { return checksum_; }
  std::span<const std::uint8_t> bytes() const { return data_.view(); }

  /// Same size, checksum and bytes (shares of one buffer compare equal
  /// without reading it).
  bool operator==(const Blob& o) const;

  /// Take `next`'s content into this blob's own buffer when both are
  /// materialized and the same size and this blob holds the only share
  /// of its buffer, and return true; otherwise leave this blob
  /// unchanged and return false (the caller then moves `next` in, and
  /// a reader's share keeps the old bytes). A store overwrite uses it
  /// so the resident buffer stays where it was allocated (DESIGN.md §11).
  bool overwrite_same_size(const Blob& next);

  /// Whether the stored checksum still matches the content. Ghost blobs
  /// are checksum-carrying only (nothing to recompute), so they always
  /// verify unless corrupt_for_test() was called.
  bool verify() const;

  /// Test hook: damage the blob (bit-flip for materialized data, checksum
  /// scramble for ghosts) so scrubbing/fault-injection tests have
  /// something to find. Other shares of the bytes stay intact.
  void corrupt_for_test();

 private:
  Bytes size_ = 0;
  std::uint64_t checksum_ = 0;
  bool corrupted_ = false;  ///< test-injection flag (ghost corruption)
  SharedBytes data_;
};

}  // namespace memfss::kvstore
