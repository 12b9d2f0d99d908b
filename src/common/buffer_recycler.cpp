#include "common/buffer_recycler.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <mutex>

namespace memfss {

namespace {

constexpr std::size_t kPerDoubling = kRecycleClassesPerDoubling;
constexpr unsigned kMinShift = std::bit_width(kRecycleMinBytes) - 1;
constexpr unsigned kSubShift = std::bit_width(kPerDoubling) - 1;
static_assert(std::has_single_bit(kRecycleMinBytes) &&
              std::has_single_bit(kRecycleMaxBytesPerClass) &&
              std::has_single_bit(kPerDoubling));

/// The largest class whose size is at most `cap` (>= kRecycleMinBytes).
constexpr std::size_t class_floor(std::size_t cap) {
  const unsigned lg = std::bit_width(cap) - 1;
  const std::size_t sub = (cap >> (lg - kSubShift)) & (kPerDoubling - 1);
  return (lg - kMinShift) * kPerDoubling + sub;
}

/// The capacity of class `c`.
constexpr std::size_t class_bytes(std::size_t c) {
  const unsigned lg = kMinShift + static_cast<unsigned>(c / kPerDoubling);
  return (kPerDoubling + c % kPerDoubling) << (lg - kSubShift);
}

/// The smallest class whose size is at least `n` (>= kRecycleMinBytes).
constexpr std::size_t class_ceil(std::size_t n) {
  const std::size_t c = class_floor(n);
  return class_bytes(c) < n ? c + 1 : c;
}

constexpr std::size_t kClasses = class_floor(kRecycleMaxBytesPerClass) + 1;
static_assert(class_bytes(0) == kRecycleMinBytes &&
              class_bytes(kClasses - 1) == kRecycleMaxBytesPerClass &&
              class_ceil(kRecycleMinBytes + 1) == 1);

/// Its address tells a thread's parks apart from other threads'.
thread_local const char t_owner = 0;

struct Parked {
  std::vector<std::uint8_t> buf;
  const void* owner;  ///< &t_owner of the parking thread
};

/// One size class's list. Cache-line aligned so two classes in use on
/// different threads never share a line.
struct alignas(64) SizeClass {
  std::mutex mu;
  std::vector<Parked> parked;           // guarded by mu, newest last
  std::uint64_t fresh = 0, reused = 0;  // guarded by mu
  /// Capacity of the parked buffers, and the recycler's epoch at the
  /// last take. Written under mu; read without it to pick a class to
  /// evict from.
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> last_take{0};
};

class Recycler {
 public:
  std::vector<std::uint8_t> take(std::size_t n) {
    std::vector<std::uint8_t> out;
    if (n > kRecycleMaxBytesPerClass) {
      oversize_fresh_.fetch_add(1, std::memory_order_relaxed);
      out.reserve(n);
      return out;
    }
    const std::size_t c = class_ceil(n);
    SizeClass& s = classes_[c];
    {
      std::lock_guard lk(s.mu);
      s.last_take.store(epoch_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      auto& list = s.parked;
      if (!list.empty()) {
        // The caller's own newest park if one is near the top, else the
        // newest of all.
        std::size_t pick = list.size() - 1;
        for (std::size_t i = list.size(), seen = 0;
             i-- > 0 && seen < kRecycleAffinity; ++seen)
          if (list[i].owner == &t_owner) {
            pick = i;
            break;
          }
        std::swap(list[pick], list.back());
        out = std::move(list.back().buf);
        list.pop_back();
        unpark(s, out.capacity());
        ++s.reused;
        return out;
      }
      ++s.fresh;
    }
    out.reserve(class_bytes(c));
    return out;
  }

  void park(std::vector<std::uint8_t>& buf) {
    const std::size_t cap = buf.capacity();
    if (cap > kRecycleMaxBytesPerClass) return;
    const std::size_t c = class_floor(cap);
    SizeClass& s = classes_[c];
    if (s.bytes.load(std::memory_order_relaxed) + cap >
            kRecycleMaxBytesPerClass ||
        !reserve_total(cap, c))
      return;
    std::lock_guard lk(s.mu);
    if (s.bytes.load(std::memory_order_relaxed) + cap <=
        kRecycleMaxBytesPerClass) {
      try {
        s.parked.push_back({std::move(buf), &t_owner});
        s.bytes.fetch_add(cap, std::memory_order_relaxed);
        return;
      } catch (...) {
        // The list could not grow: leave the buffer to be freed.
      }
    }
    total_.fetch_sub(cap, std::memory_order_relaxed);
  }

  void trim() {
    for (SizeClass& s : classes_) {
      std::vector<Parked> drop;
      {
        std::lock_guard lk(s.mu);
        drop.swap(s.parked);
        total_.fetch_sub(s.bytes.exchange(0, std::memory_order_relaxed),
                         std::memory_order_relaxed);
      }
    }  // `drop` frees each class's buffers outside its lock
  }

  RecyclerStats stats() {
    RecyclerStats st;
    st.fresh_takes = oversize_fresh_.load(std::memory_order_relaxed);
    st.evicted = evicted_.load(std::memory_order_relaxed);
    for (SizeClass& s : classes_) {
      std::lock_guard lk(s.mu);
      st.fresh_takes += s.fresh;
      st.reused_takes += s.reused;
      st.parked_bytes += s.bytes.load(std::memory_order_relaxed);
    }
    return st;
  }

 private:
  /// Book a buffer of capacity `cap` out of class `s` (under its lock).
  void unpark(SizeClass& s, std::size_t cap) {
    s.bytes.fetch_sub(cap, std::memory_order_relaxed);
    total_.fetch_sub(cap, std::memory_order_relaxed);
  }

  /// Count `cap` more parked bytes against kRecycleMaxParkedBytes,
  /// evicting from classes taken from less recently than class `c`
  /// while they would not fit; false, with nothing counted, when no
  /// such class is left.
  bool reserve_total(std::size_t cap, std::size_t c) {
    for (;;) {
      std::uint64_t t = total_.load(std::memory_order_relaxed);
      while (t + cap <= kRecycleMaxParkedBytes)
        if (total_.compare_exchange_weak(t, t + cap,
                                         std::memory_order_relaxed))
          return true;
      if (!evict_older_than(c)) return false;
    }
  }

  /// Free one parked buffer of the class with parked bytes whose last
  /// take is oldest, if that take is older than class `c`'s. When there
  /// is none, advance the epoch instead, so the classes taken from
  /// after this point count as newer than those that are not, and the
  /// next full park finds a victim if any class has gone unused.
  bool evict_older_than(std::size_t c) {
    std::size_t victim = c;
    std::uint64_t oldest = classes_[c].last_take.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kClasses; ++i) {
      const SizeClass& s = classes_[i];
      if (s.bytes.load(std::memory_order_relaxed) == 0) continue;
      const std::uint64_t stamp = s.last_take.load(std::memory_order_relaxed);
      if (stamp < oldest) {
        victim = i;
        oldest = stamp;
      }
    }
    if (victim == c) {
      epoch_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    std::vector<std::uint8_t> drop;  // freed outside the victim's lock
    SizeClass& s = classes_[victim];
    std::lock_guard lk(s.mu);
    if (!s.parked.empty()) {
      drop = std::move(s.parked.back().buf);
      s.parked.pop_back();
      unpark(s, drop.capacity());
      evicted_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  std::array<SizeClass, kClasses> classes_;
  std::atomic<std::uint64_t> total_{0};  ///< bytes parked in every class
  std::atomic<std::uint64_t> epoch_{0};  ///< advanced when a full park finds no victim
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> oversize_fresh_{0};  ///< takes over the largest class
};

Recycler& recycler() {
  static Recycler* const r = new Recycler;  // never destroyed
  return *r;
}

// --- SharedBytes nodes --------------------------------------------------------
//
// Nodes are allocated kNodeSlab at a time and never freed. Each thread
// keeps a private list of free nodes; it refills kNodeBatch at a time
// from the shared list and spills kNodeBatch to it past kNodeCache, so
// a thread that only takes (a reactor decoding puts) and one that only
// drops (a worker overwriting values) meet under the lock once per
// batch, and a thread that does both never does.

using detail::ByteNode;

constexpr std::size_t kNodeSlab = 64;
constexpr std::size_t kNodeBatch = 32;
constexpr std::size_t kNodeCache = 2 * kNodeBatch;

struct NodeList {
  ByteNode* head = nullptr;
  std::size_t n = 0;

  void push(ByteNode* node) {
    node->next = head;
    head = node;
    ++n;
  }
  ByteNode* pop() {
    ByteNode* node = head;
    head = node->next;
    --n;
    return node;
  }
  /// Move up to `count` nodes from the front of `from` onto this list.
  void take_from(NodeList& from, std::size_t count) {
    while (count-- > 0 && from.n > 0) push(from.pop());
  }
};

class NodePool {
 public:
  /// Move kNodeBatch free nodes onto `into`. A slab is allocated when
  /// that would leave fewer than kNodeBatch on the list, so nodes are
  /// allocated while free ones run low, not when a take finds none: a
  /// stretch of traffic that returns as many nodes as it takes
  /// allocates none.
  void refill(NodeList& into) {
    std::lock_guard lk(mu_);
    if (free_.n < 2 * kNodeBatch) {
      auto* slab = new Slab;
      slab->next = slabs_;
      slabs_ = slab;
      for (ByteNode& node : slab->nodes) free_.push(&node);
      nodes_.fetch_add(kNodeSlab, std::memory_order_relaxed);
    }
    into.take_from(free_, kNodeBatch);
  }

  /// Move `count` nodes of `from` onto the shared list.
  void spill(NodeList& from, std::size_t count) {
    std::lock_guard lk(mu_);
    free_.take_from(from, count);
  }

  std::uint64_t nodes() const { return nodes_.load(std::memory_order_relaxed); }

 private:
  struct Slab {
    Slab* next = nullptr;
    ByteNode nodes[kNodeSlab];
  };

  std::mutex mu_;
  NodeList free_;           // guarded by mu_
  Slab* slabs_ = nullptr;   // guarded by mu_; keeps every node reachable
  std::atomic<std::uint64_t> nodes_{0};
};

NodePool& node_pool() {
  static NodePool* const p = new NodePool;  // never destroyed
  return *p;
}

/// A thread's free nodes. Trivially destructible, so a node dropped
/// after NodeFlush ran (by a later thread_local destructor, or during
/// static destruction) still has a list to go to; it is only lost for
/// reuse.
struct LocalNodes {
  NodeList list;
  bool armed = false;  ///< NodeFlush constructed for this thread
};
thread_local LocalNodes t_nodes;

/// Hands a thread's free nodes to the shared list when the thread exits.
struct NodeFlush {
  ~NodeFlush() { node_pool().spill(t_nodes.list, t_nodes.list.n); }
  bool touched = false;
};
thread_local NodeFlush t_flush;

NodeList& local_nodes() {
  if (!t_nodes.armed) {
    t_flush.touched = true;  // constructs t_flush, so its destructor runs
    t_nodes.armed = true;
  }
  return t_nodes.list;
}

}  // namespace

namespace detail {

std::vector<std::uint8_t> take_large(std::size_t n) {
  return recycler().take(n);
}

void park_large(std::vector<std::uint8_t>& buf) noexcept {
  recycler().park(buf);
}

ByteNode* take_node(std::vector<std::uint8_t>&& bytes) {
  NodeList& local = local_nodes();
  if (local.n == 0) node_pool().refill(local);
  ByteNode* node = local.pop();
  node->refs.store(1, std::memory_order_relaxed);
  node->vec = std::move(bytes);
  return node;
}

void recycle_node(ByteNode* node) noexcept {
  park_buffer(std::move(node->vec));
  std::vector<std::uint8_t>().swap(node->vec);  // frees what was not parked
  NodeList& local = local_nodes();
  local.push(node);
  if (local.n > kNodeCache) node_pool().spill(local, kNodeBatch);
}

}  // namespace detail

RecyclerStats recycler_stats() {
  RecyclerStats st = recycler().stats();
  st.share_nodes = node_pool().nodes();
  return st;
}

void recycler_trim() noexcept { recycler().trim(); }

}  // namespace memfss
