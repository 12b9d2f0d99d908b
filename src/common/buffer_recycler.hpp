// Process-wide recycler for large byte buffers (DESIGN.md §11).
//
// A buffer that one thread allocates and another frees lands in glibc's
// per-thread malloc arenas in a way that is never reused: on the
// erasure-coded serving path (a preload on the main thread, rewrites and
// reconstructs on workers, evictions on a third thread) peak RSS grew
// with the number of ops processed, not with the data held. So every
// path that drops a byte buffer of at least kRecycleMinBytes parks it
// here, and every path that needs one takes it back first, whatever
// thread parked it.
//
// Buffers are kept by size class, not by exact capacity, so traffic of
// any mix of value sizes is recycled, not only a few fixed sizes: there
// are kRecycleClassesPerDoubling classes per power of two from 4 KiB to
// kRecycleMaxBytesPerClass (16 MiB), 97 in all, each a list behind its
// own mutex in a fixed table. A fresh buffer is allocated with its
// class's capacity, at most 1/8 above the size asked for, so the next
// take of any size in that class can reuse it. A parked buffer goes to
// the largest class its capacity covers.
//
// Constants bound what is parked. A class holds at most
// kRecycleMaxBytesPerClass, and all classes together at most
// kRecycleMaxParkedBytes (64 MiB). A park that would pass the total
// first frees buffers of the class whose last take is oldest, so sizes
// that stop being asked for give their memory back as soon as live ones
// need it; when the parking class is itself the oldest, its buffer is
// freed instead. A park of a buffer under kRecycleMinBytes or over
// kRecycleMaxBytesPerClass leaves it to be freed. recycler_trim() frees
// everything parked.
//
// A take prefers, among the newest kRecycleAffinity buffers of its
// class, one the calling thread parked itself: that one is likely still
// in the caller's core cache, while one written on another core has to
// be fetched line by line before it is overwritten. The recycler is
// created on first use and never destroyed, so a buffer dropped during
// static destruction still has somewhere to go. Nothing here is
// configurable.
//
// SharedBytes is the immutable, reference-counted buffer behind every
// materialized kvstore::Blob. Its count lives in a small node next to
// the buffer; the share that drops the count to zero parks the buffer
// here, on whatever thread it runs, and keeps the node in that thread's
// free list for the next SharedBytes. Nodes are allocated in slabs and
// never freed, so a share costs no allocation once the lists are warm,
// whatever the value's size, and the nodes kept are bounded by the
// most values ever alive at once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace memfss {

/// Buffers whose capacity is below this bypass the recycler entirely.
inline constexpr std::size_t kRecycleMinBytes = 4096;
/// Most bytes parked in one size class; also the largest parkable buffer.
inline constexpr std::size_t kRecycleMaxBytesPerClass = std::size_t{16} << 20;
/// Most bytes parked in all classes together.
inline constexpr std::size_t kRecycleMaxParkedBytes = std::size_t{64} << 20;
/// Size classes per power of two; a fresh buffer's capacity is rounded
/// up to its class, so by at most 1/kRecycleClassesPerDoubling.
inline constexpr std::size_t kRecycleClassesPerDoubling = 8;
/// How many of a class's newest buffers a take searches for its own.
inline constexpr std::size_t kRecycleAffinity = 16;

namespace detail {
/// The recycler proper, for `n` >= kRecycleMinBytes: a vector with
/// capacity for at least `n` bytes, reused when one is parked. Its size
/// and contents are whatever the buffer last held.
std::vector<std::uint8_t> take_large(std::size_t n);
void park_large(std::vector<std::uint8_t>& buf) noexcept;
}  // namespace detail

/// An empty buffer with capacity for at least `n` bytes, for a caller
/// that appends its content (nothing is zeroed or copied).
inline std::vector<std::uint8_t> take_reserved(std::size_t n) {
  std::vector<std::uint8_t> v;
  if (n < kRecycleMinBytes) {
    v.reserve(n);
  } else {
    v = detail::take_large(n);
    v.clear();
  }
  return v;
}

/// A buffer of exactly `n` bytes whose contents are unspecified (zero
/// when fresh): the caller overwrites all of it.
inline std::vector<std::uint8_t> take_buffer(std::size_t n) {
  if (n < kRecycleMinBytes) return std::vector<std::uint8_t>(n);
  auto v = detail::take_large(n);
  v.resize(n);  // zero-fills only past the size the buffer last held
  return v;
}

/// A buffer holding a copy of `bytes`.
inline std::vector<std::uint8_t> take_copy(std::span<const std::uint8_t> bytes) {
  auto v = take_reserved(bytes.size());
  v.assign(bytes.begin(), bytes.end());
  return v;
}

/// Hand `buf` back for a later take. A parked buffer leaves `buf`
/// empty; one the recycler does not keep (see the header comment) is
/// left in `buf`, which frees it as usual.
inline void park_buffer(std::vector<std::uint8_t>&& buf) noexcept {
  if (buf.capacity() >= kRecycleMinBytes) detail::park_large(buf);
}

namespace detail {
/// What a SharedBytes points to: the bytes and the count of the shares
/// that hold them. Nodes are recycled, never freed.
struct ByteNode {
  std::atomic<std::uint32_t> refs{0};
  std::vector<std::uint8_t> vec;
  ByteNode* next = nullptr;  ///< free-list link while unowned
};
/// A node holding `bytes`, with one share.
ByteNode* take_node(std::vector<std::uint8_t>&& bytes);
/// The last share of `n` is gone: park its buffer and keep the node.
void recycle_node(ByteNode* n) noexcept;
}  // namespace detail

/// An immutable byte buffer held by shares (DESIGN.md §11). Copying a
/// SharedBytes adds a share of the same bytes; the last share to go
/// parks the buffer (kRecycleMinBytes and up) and hands its node back
/// for the next SharedBytes on any thread. The count lives in that
/// node, next to the buffer, so a share costs no allocation once the
/// node free lists are warm. Only the holder of the sole share may
/// write the bytes (mutable_bytes()); every other holder sees them
/// fixed for as long as it keeps its share. An empty SharedBytes owns
/// nothing.
class SharedBytes {
 public:
  SharedBytes() = default;
  explicit SharedBytes(std::vector<std::uint8_t>&& bytes)
      : node_(bytes.empty() ? nullptr : detail::take_node(std::move(bytes))) {}
  SharedBytes(const SharedBytes& o) noexcept : node_(o.node_) {
    if (node_) node_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  SharedBytes(SharedBytes&& o) noexcept : node_(std::exchange(o.node_, nullptr)) {}
  /// Copy and move assignment: the share this held is dropped.
  SharedBytes& operator=(SharedBytes o) noexcept {
    std::swap(node_, o.node_);
    return *this;
  }
  ~SharedBytes() {
    // acq_rel: this share's reads of the bytes happen before whoever
    // next writes them, the sole holder or the next owner of the buffer.
    if (node_ && node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      detail::recycle_node(node_);
  }

  bool empty() const { return node_ == nullptr; }
  std::span<const std::uint8_t> view() const {
    if (!node_) return {};
    return node_->vec;
  }

  /// Whether this is the only share. The acquire load pairs with the
  /// release of every dropped share, so once it reads true no other
  /// holder's reads are still outstanding, and no new share can appear
  /// unless this holder copies itself.
  bool sole() const {
    return node_ && node_->refs.load(std::memory_order_acquire) == 1;
  }

  /// The bytes, writable; only while sole().
  std::span<std::uint8_t> mutable_bytes() {
    if (!node_) return {};
    return node_->vec;
  }

 private:
  detail::ByteNode* node_ = nullptr;
};

struct RecyclerStats {
  std::uint64_t fresh_takes = 0;   ///< takes >= kRecycleMinBytes allocated anew
  std::uint64_t reused_takes = 0;  ///< takes served from a parked buffer
  std::uint64_t parked_bytes = 0;  ///< capacity of every parked buffer
  std::uint64_t evicted = 0;  ///< parked buffers freed to make room for others
  std::uint64_t share_nodes = 0;  ///< SharedBytes nodes allocated (kept for reuse)
};

/// Process-wide totals since start; a consistent snapshot when no other
/// thread takes or parks meanwhile.
RecyclerStats recycler_stats();

/// Free every parked buffer.
void recycler_trim() noexcept;

}  // namespace memfss
