// The process buffer recycler (common/buffer_recycler.hpp, DESIGN.md
// §11): takes and parks across threads, size classes, the threshold and
// the caps, eviction of classes no longer taken, Blob's share/assign/
// destroy contract, the reuse of SharedBytes nodes, the frame decoder's
// take, degraded erasure-coded gets, and the no-stranding fence --
// erasure-coded traffic on two workers with evictions on a third thread
// allocates only a handful of large buffers once the store is
// preloaded, also after buffers of many sizes that are never asked for
// again filled the recycler. Labelled `concurrency`, so the TSan pass
// runs it.
//
// The recycler is one per process: every test starts by freeing what
// is parked and reads its counters as deltas.
#include "common/buffer_recycler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "erasure/reed_solomon.hpp"
#include "kvstore/blob.hpp"
#include "netio/frame.hpp"
#include "rt/ec.hpp"
#include "rt/opstream.hpp"
#include "rt/server.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tenant_registry.hpp"

namespace memfss {
namespace {

using kvstore::Blob;

Blob filled_blob(std::size_t n, std::uint8_t byte) {
  return Blob::materialized(std::vector<std::uint8_t>(n, byte));
}

/// Starts and ends every test with nothing parked.
class BufferRecycler : public ::testing::Test {
 protected:
  void SetUp() override { recycler_trim(); }
  void TearDown() override { recycler_trim(); }
};

/// A buffer of capacity `n` whose pages were never touched.
std::vector<std::uint8_t> untouched_buffer(std::size_t n) {
  std::vector<std::uint8_t> v;
  v.reserve(n);
  return v;
}

TEST_F(BufferRecycler, TakeOfAParkedSizeReturnsTheParkedBuffer) {
  constexpr std::size_t n = 3 * kRecycleMinBytes;
  auto v = take_buffer(n);
  ASSERT_EQ(v.size(), n);
  const std::uint8_t* p = v.data();

  // Parked on another thread, taken on this one.
  std::thread([&] { park_buffer(std::move(v)); }).join();
  const auto s0 = recycler_stats();
  auto w = take_buffer(n);
  const auto s1 = recycler_stats();
  EXPECT_EQ(w.data(), p);
  EXPECT_EQ(w.size(), n);
  EXPECT_EQ(s1.reused_takes, s0.reused_takes + 1);
  EXPECT_EQ(s1.fresh_takes, s0.fresh_takes);
  EXPECT_EQ(s1.parked_bytes, s0.parked_bytes - n);

  // Parked on this thread, taken as a copy on another one.
  park_buffer(std::move(w));
  const std::vector<std::uint8_t> src(n, 0x5a);
  std::vector<std::uint8_t> c;
  std::thread([&] { c = take_copy(src); }).join();
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c, src);

  // Nothing parked: the next take is fresh, and zeroed.
  const auto s2 = recycler_stats();
  const auto z = take_buffer(n);
  EXPECT_EQ(recycler_stats().fresh_takes, s2.fresh_takes + 1);
  EXPECT_EQ(z, std::vector<std::uint8_t>(n, 0));
}

TEST_F(BufferRecycler, TakePrefersTheCallersOwnPark) {
  constexpr std::size_t n = 10 * kRecycleMinBytes;
  auto mine = take_buffer(n);
  auto theirs = take_buffer(n);
  const std::uint8_t* pm = mine.data();
  const std::uint8_t* pt = theirs.data();
  park_buffer(std::move(mine));
  std::thread([&] { park_buffer(std::move(theirs)); }).join();  // newest
  EXPECT_EQ(take_buffer(n).data(), pm);  // this thread's, though older
  EXPECT_EQ(take_buffer(n).data(), pt);  // then the other thread's
}

TEST_F(BufferRecycler, SmallAndOversizedBuffersAreFreedNotParked) {
  const auto s0 = recycler_stats();
  park_buffer(std::vector<std::uint8_t>(kRecycleMinBytes - 1));
  park_buffer(untouched_buffer(kRecycleMaxBytesPerClass + 1));
  (void)take_buffer(kRecycleMinBytes - 1);
  (void)take_copy(std::vector<std::uint8_t>(100, 1));
  const auto s1 = recycler_stats();
  EXPECT_EQ(s1.parked_bytes, s0.parked_bytes);
  EXPECT_EQ(s1.fresh_takes, s0.fresh_takes);  // small takes are not counted
  EXPECT_EQ(s1.reused_takes, s0.reused_takes);

  // One class holds at most the per-class cap; parks past it free their
  // buffer.
  constexpr std::size_t n = std::size_t{1} << 20;
  for (std::size_t i = 0; i < kRecycleMaxBytesPerClass / n + 3; ++i)
    park_buffer(untouched_buffer(n));
  EXPECT_EQ(recycler_stats().parked_bytes,
            s0.parked_bytes + kRecycleMaxBytesPerClass);
}

TEST_F(BufferRecycler, SizeClassesServeNearbySizes) {
  // A fresh buffer is rounded up to its class, by at most 1/8.
  for (std::size_t n = kRecycleMinBytes; n <= std::size_t{1} << 20;
       n += n / 7 + 1) {
    const auto v = take_reserved(n);
    EXPECT_GE(v.capacity(), n);
    EXPECT_LE(v.capacity(), n + n / kRecycleClassesPerDoubling) << n;
  }

  // Another size of the same class reuses it.
  auto a = take_buffer(5000);
  EXPECT_EQ(a.capacity(), 5120u);
  const std::uint8_t* p = a.data();
  park_buffer(std::move(a));
  const std::vector<std::uint8_t> src(5119, 7);
  const auto b = take_copy(src);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b, src);

  // A buffer of any capacity parks in the largest class it covers: 5000
  // bytes in the 4608-byte class.
  auto odd = std::vector<std::uint8_t>(5000);
  const std::uint8_t* q = odd.data();
  park_buffer(std::move(odd));
  EXPECT_NE(take_buffer(4609).data(), q);
  const auto c = take_buffer(4608);
  EXPECT_EQ(c.data(), q);
  EXPECT_EQ(c.size(), 4608u);
}

// Values of a couple of hundred distinct sizes, copied and dropped on
// two threads. Each thread holds one copy at a time, so at most two
// buffers of a class are ever out at once and every other take is a
// reuse -- the traffic a table keyed on exact sizes would miss on. A
// Blob copy is a share and takes nothing, so the copies are made with
// take_copy, as a received value is; dropping a copy's one share parks
// its buffer.
TEST_F(BufferRecycler, VariableSizeTrafficIsRecycled) {
  constexpr int kDoublings = 5, kCopies = 3000;  // sizes 4 KiB .. 128 KiB
  std::vector<Blob> values;
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    const std::size_t lo = kRecycleMinBytes
                           << rng.uniform_u64(0, kDoublings - 1);
    values.push_back(filled_blob(lo + rng.uniform_u64(0, lo - 1),
                                 static_cast<std::uint8_t>(i)));
  }
  const auto s0 = recycler_stats();
  auto copier = [&](std::uint64_t seed) {
    Rng r(seed);
    for (int i = 0; i < kCopies; ++i) {
      const Blob& v = values[r.uniform_u64(0, values.size() - 1)];
      const Blob share = v;  // no take
      const Blob copy = Blob::materialized(take_copy(v.bytes()));  // a take
      if (!(copy == v) || share.bytes().data() != v.bytes().data())
        ADD_FAILURE() << "copy differs or share does not share";
    }
  };
  std::thread t1(copier, 1), t2(copier, 2);
  t1.join();
  t2.join();
  const auto s1 = recycler_stats();
  const std::uint64_t fresh = s1.fresh_takes - s0.fresh_takes;
  EXPECT_EQ(fresh + s1.reused_takes - s0.reused_takes, 2u * kCopies);
  EXPECT_LE(fresh, 2u * (kDoublings * kRecycleClassesPerDoubling + 1));
}

// A Blob copy is a share: it takes no buffer, and dropping it parks
// nothing. The last share's destruction parks the buffer.
TEST_F(BufferRecycler, BlobCopyTakesAndDestructionParks) {
  constexpr std::size_t n = 5 * kRecycleMinBytes;
  const auto s0 = recycler_stats();
  const std::uint8_t* p = nullptr;
  {
    const Blob b = filled_blob(n, 3);
    p = b.bytes().data();
    {
      const Blob c = b;  // a share: no take
      EXPECT_EQ(c.bytes().data(), p);
      EXPECT_EQ(c, b);
      EXPECT_TRUE(c.verify());
    }  // not the last share: nothing parked
    const auto s1 = recycler_stats();
    EXPECT_EQ(s1.fresh_takes, s0.fresh_takes);
    EXPECT_EQ(s1.reused_takes, s0.reused_takes);
    EXPECT_EQ(s1.parked_bytes, s0.parked_bytes);
  }  // the last share parks
  EXPECT_EQ(recycler_stats().parked_bytes, s0.parked_bytes + n);
  const auto d = take_buffer(n);  // takes the buffer the last share parked
  EXPECT_EQ(d.data(), p);
  EXPECT_EQ(recycler_stats().reused_takes, s0.reused_takes + 1);
  EXPECT_EQ(recycler_stats().parked_bytes, s0.parked_bytes);
}

TEST_F(BufferRecycler, BlobAssignmentParksTheDroppedBuffer) {
  constexpr std::size_t n = 6 * kRecycleMinBytes, m = 7 * kRecycleMinBytes;
  const Blob src = filled_blob(n, 1);

  // Copy assignment: the old buffer's last share is dropped, so it is
  // parked, and the blob shares src's bytes without a take.
  Blob a = filled_blob(m, 2);
  const std::uint8_t* old_a = a.bytes().data();
  const auto s0 = recycler_stats();
  a = src;
  EXPECT_EQ(a, src);
  EXPECT_EQ(a.bytes().data(), src.bytes().data());
  EXPECT_EQ(recycler_stats().fresh_takes + recycler_stats().reused_takes,
            s0.fresh_takes + s0.reused_takes);
  EXPECT_EQ(recycler_stats().parked_bytes, s0.parked_bytes + m);
  EXPECT_EQ(take_buffer(m).data(), old_a);

  // Assigning over a share that is not the last parks nothing.
  a = filled_blob(m, 3);
  EXPECT_EQ(recycler_stats().parked_bytes, s0.parked_bytes);
  EXPECT_EQ(src, filled_blob(n, 1));

  // Move assignment: the old buffer is parked, the moved one kept.
  Blob b = filled_blob(m, 4);
  const std::uint8_t* old_b = b.bytes().data();
  Blob next = filled_blob(n, 5);
  const std::uint8_t* moved = next.bytes().data();
  b = std::move(next);
  EXPECT_EQ(b.bytes().data(), moved);
  EXPECT_EQ(b, filled_blob(n, 5));
  EXPECT_EQ(take_buffer(m).data(), old_b);
}

// The nodes that hold a SharedBytes' count are reused, not allocated per
// value: one thread makes values and another drops them, 100 at a
// time, and the nodes allocated cover what is in flight and the two
// threads' private lists. Each thread hands its list back when it
// exits, so a second run allocates none.
TEST_F(BufferRecycler, ShareNodesAreReusedAcrossThreads) {
  constexpr int kRounds = 200, kBatch = 100;
  auto run = [] {
    std::vector<Blob> batch;
    std::atomic<int> turn{0};  // 2r: the maker's turn, 2r+1: the dropper's
    std::thread maker([&] {
      for (int r = 0; r < kRounds; ++r) {
        while (turn.load() != 2 * r) std::this_thread::yield();
        for (int i = 0; i < kBatch; ++i)
          batch.push_back(filled_blob(64, static_cast<std::uint8_t>(i)));
        turn.store(2 * r + 1);
      }
    });
    std::thread dropper([&] {
      for (int r = 0; r < kRounds; ++r) {
        while (turn.load() != 2 * r + 1) std::this_thread::yield();
        batch.clear();
        turn.store(2 * r + 2);
      }
    });
    maker.join();
    dropper.join();
  };
  const auto s0 = recycler_stats();
  run();
  const auto s1 = recycler_stats();
  EXPECT_LE(s1.share_nodes - s0.share_nodes, 8u * 64);
  run();
  EXPECT_EQ(recycler_stats().share_nodes, s1.share_nodes);
}

TEST_F(BufferRecycler, SmallBlobsAndGhostsNeverReachTheRecycler) {
  const auto s0 = recycler_stats();
  {
    const Blob small = filled_blob(1024, 7);
    Blob copy = small;
    copy = small;
    const Blob ghost = Blob::ghost(64 * 1024, 9);
    Blob g2 = ghost;
    g2 = ghost;
    g2 = std::move(copy);
  }
  const auto s1 = recycler_stats();
  EXPECT_EQ(s1.fresh_takes, s0.fresh_takes);
  EXPECT_EQ(s1.reused_takes, s0.reused_takes);
  EXPECT_EQ(s1.parked_bytes, s0.parked_bytes);
}

TEST_F(BufferRecycler, FrameDecoderTakesLargeValues) {
  constexpr std::size_t n = 9 * kRecycleMinBytes;
  auto parked = take_buffer(n);
  const std::uint8_t* p = parked.data();
  park_buffer(std::move(parked));

  netio::Frame f;
  f.opcode = static_cast<std::uint8_t>(netio::Opcode::put);
  f.key = "k";
  f.value.assign(n, 0x33);
  netio::FrameDecoder dec;
  dec.feed(netio::encode(f));
  netio::Frame out;
  ASSERT_EQ(dec.next(out), netio::Decode::frame);
  EXPECT_EQ(out.value.data(), p);
  EXPECT_EQ(out, f);

  // Decoding into the same Frame parks the value it held first, so the
  // next frame of that size gets it back.
  dec.feed(netio::encode(f));
  ASSERT_EQ(dec.next(out), netio::Decode::frame);
  EXPECT_EQ(out.value.data(), p);
  EXPECT_EQ(out, f);
}

// A degraded get copies the siblings it decodes from into recycled
// buffers and parks them after the decode, so once warm, gets of a
// stripe with a data sibling missing take no fresh buffer.
TEST_F(BufferRecycler, DegradedGetsTakeNoFreshBuffersOnceWarm) {
  const std::string token = "tok";
  const erasure::ReedSolomon rs(4, 2);
  rt::ShardedStore store({8, 16 * units::MiB, token});
  const Blob value = filled_blob(64 * 1024, 0x6b);
  ASSERT_TRUE(rt::ec::put(store, token, "k", value, rs).ok());
  ASSERT_TRUE(store.del(token, rt::ec::shard_key("k", 1)).ok());
  auto degraded_get = [&] {
    bool reconstructed = false;
    auto got = rt::ec::get(store, token, "k", nullptr, &reconstructed);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(reconstructed);
    EXPECT_TRUE(got.value() == value);
  };
  for (int i = 0; i < 4; ++i) ASSERT_NO_FATAL_FAILURE(degraded_get());
  const auto s0 = recycler_stats();
  constexpr int kGets = 50;
  for (int i = 0; i < kGets; ++i) ASSERT_NO_FATAL_FAILURE(degraded_get());
  const auto s1 = recycler_stats();
  EXPECT_EQ(s1.fresh_takes, s0.fresh_takes);
  // The payload and one buffer per sibling: five read, one rebuilt.
  EXPECT_EQ(s1.reused_takes - s0.reused_takes, std::uint64_t{7} * kGets);
}

// The no-stranding fence. An RS(4,2) tenant is preloaded on this
// thread; then 5,000 ops at 80:20 get:put run on two workers, at most
// kWindow in flight, while this thread evicts a data sibling before
// every 10th op -- the inproc_ec_64k shape, scaled down. Every buffer
// that traffic drops (overwritten siblings, evicted siblings, put values,
// get results) is parked, so fresh takes are bounded by what the ops in
// flight hold at once -- at most 8 large buffers each (a value, six
// siblings, a payload) -- whatever the op count; about 16 measured. A
// ~Blob that frees instead of parking makes nearly every take fresh.
constexpr std::size_t kFenceOps = 5000;
constexpr std::uint32_t kFenceWindow = 8;
constexpr std::uint64_t kFenceMaxFresh = 8 * kFenceWindow;

struct FenceRun {
  std::uint64_t fresh = 0, reused = 0, wrong = 0;
};

void run_ec_fence(FenceRun& out) {
  constexpr std::size_t kValue = 32 * 1024;  // 8 KiB siblings
  constexpr std::uint32_t kKeys = 128;
  constexpr std::size_t kOps = kFenceOps, kPool = 8, kEvictEvery = 10;
  constexpr std::uint32_t kWindow = kFenceWindow;
  const std::string token = "tok";

  rt::TenantRegistry tenants;
  rt::TenantConfig cfg;
  cfg.name = "ec";
  cfg.rs = {4, 2};
  const auto id = tenants.register_tenant(cfg);
  ASSERT_TRUE(id.ok());
  rt::ShardedStore::Options sopt{8, 64 * units::MiB, token};
  sopt.tenants = &tenants;
  rt::ShardedStore store(sopt);
  std::vector<Blob> pool;
  Rng rng(29);
  for (std::size_t i = 0; i < kPool; ++i) {
    std::vector<std::uint8_t> v(kValue);
    for (auto& b : v) b = std::uint8_t(rng.next_u64());
    pool.push_back(Blob::materialized(std::move(v)));
  }
  std::vector<std::size_t> model(kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    model[k] = k % kPool;
    ASSERT_TRUE(rt::ec::put(store, token, rt::loadgen_key(k), pool[model[k]],
                            *tenants.rs_coder(id.value()), nullptr, id.value())
                    .ok());
  }

  rt::RuntimeServer::Options opt;
  opt.threads = 2;
  opt.tenants = &tenants;
  rt::RuntimeServer server(store, opt);
  const auto ops = rt::generate_stream({31, kOps, 0.8, 0.0, 0.0, kKeys}, 0);
  std::vector<int> missing(kKeys, -1);  // data sibling evicted since a put
  std::atomic<std::uint32_t> inflight{0};
  std::atomic<std::uint64_t> wrong{0};
  const auto s0 = recycler_stats();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (auto n = inflight.load(); n >= kWindow; n = inflight.load())
      inflight.wait(n);
    const rt::GenOp& g = ops[i];
    const bool get = g.type == rt::Op::Type::get;
    // At most one data sibling of a key is missing between its puts, so
    // every stripe stays readable.
    if (i % kEvictEvery == kEvictEvery - 1) {
      int& lost = missing[g.key_index];
      if (lost < 0) lost = static_cast<int>(rng.uniform_u64(0, 3));
      (void)store.evict(rt::ec::shard_key(rt::loadgen_key(g.key_index),
                                          static_cast<std::size_t>(lost)));
    }
    const std::size_t expect = model[g.key_index];
    rt::Op op{g.type, rt::loadgen_key(g.key_index), {}, id.value()};
    if (!get) {
      model[g.key_index] = rng.uniform_u64(0, kPool - 1);
      op.value = pool[model[g.key_index]];
      missing[g.key_index] = -1;
    }
    inflight.fetch_add(1);
    server.submit_async(token, std::move(op), [&, get, expect](rt::OpResult r) {
      if (r.code != Errc::ok || (get && !(r.value == pool[expect])))
        wrong.fetch_add(1);
      inflight.fetch_sub(1);
      inflight.notify_one();
    });
  }
  for (auto n = inflight.load(); n > 0; n = inflight.load()) inflight.wait(n);
  const auto s1 = recycler_stats();
  server.shutdown();

  out.fresh = s1.fresh_takes - s0.fresh_takes;
  out.reused = s1.reused_takes - s0.reused_takes;
  out.wrong = wrong.load();
}

TEST_F(BufferRecycler, EcTrafficWithEvictionsTakesFewFreshBuffers) {
  FenceRun r;
  ASSERT_NO_FATAL_FAILURE(run_ec_fence(r));
  EXPECT_EQ(r.wrong, 0u);
  EXPECT_LE(r.fresh, kFenceMaxFresh) << "reused " << r.reused;
  EXPECT_GE(r.reused, kFenceOps);  // every op takes at least one large buffer
}

// Buffers of ever new sizes that nothing takes again -- what a client
// putting and deleting values of many sizes leaves behind -- first fill
// the whole parked budget. The fence still holds: the EC traffic's parks
// evict those buffers, whose classes were never taken since, instead of
// being refused.
TEST_F(BufferRecycler, SizesNoLongerTakenGiveWayToLiveOnes) {
  std::size_t n = std::size_t{2} << 20;
  while (recycler_stats().parked_bytes + n <= kRecycleMaxParkedBytes) {
    park_buffer(untouched_buffer(n));
    n += 64 * 1024;
  }
  // The last few MiB in 4 KiB buffers, a class the traffic below never
  // takes, so none of its parks fits without an eviction.
  while (recycler_stats().parked_bytes + kRecycleMinBytes <=
         kRecycleMaxParkedBytes)
    park_buffer(untouched_buffer(kRecycleMinBytes));
  const auto full = recycler_stats();
  ASSERT_GT(full.parked_bytes + kRecycleMinBytes, kRecycleMaxParkedBytes);
  // One more such park finds no class older than its own: it is freed.
  park_buffer(untouched_buffer(n));
  EXPECT_EQ(recycler_stats().parked_bytes, full.parked_bytes);
  EXPECT_EQ(recycler_stats().evicted, full.evicted);

  FenceRun r;
  ASSERT_NO_FATAL_FAILURE(run_ec_fence(r));
  EXPECT_EQ(r.wrong, 0u);
  EXPECT_LE(r.fresh, kFenceMaxFresh) << "reused " << r.reused;
  EXPECT_GE(r.reused, kFenceOps);
  const auto after = recycler_stats();
  EXPECT_GT(after.evicted, full.evicted);
  EXPECT_LE(after.parked_bytes, kRecycleMaxParkedBytes);
}

}  // namespace
}  // namespace memfss
