// Hot-path performance harness: the simulator's three inner loops.
//
// Micro benches:
//   - fabric.recompute_per_sec_f<N>: one full max-min water-filling pass
//     over N concurrent flows (the cost every flow arrival/completion
//     pays), N swept 10^2..10^5;
//   - placement.places_per_sec: two-layer class-HRW placements through the
//     policy facade, stripe keys in the namespace's canonical form;
//   - sim.events_per_sec: schedule+dispatch throughput of the event loop
//     under the self-rescheduling-chain pattern every coroutine uses.
//
// Macro bench:
//   - fig2_ddbag.wall_clock_sec: a fig2-shaped dd bag (scaled-down Fig. 2
//     point: own+victim cluster, alpha=0.25, dd tasks writing striped
//     files) timed end-to-end in host wall-clock.
//
// Byte-pump benches (DESIGN.md §14 -- the SIMD-dispatched hot loops):
//   - erasure.rs_encode_GBps / rs_decode_loss_GBps: RS(8, 3) over a 1 MiB
//     payload on the active GF(2^8) kernel, plus rs_encode_<arm>_GBps /
//     rs_decode_loss_<arm>_GBps pinned to every backend this host runs
//     (gfni, avx2, ssse3, scalar; the dispatch win is the ratio to the
//     scalar row, and an arm keeps a number after it stops being
//     selected); decode runs with data shards {0, 2} and parity {9}
//     lost, so it pays matrix inversion + reconstruction every stripe.
//   - erasure.rs42_encode_1000B_<arm>_GBps: RS(4,2) over a 1,000-byte
//     payload on every arm this host runs. Its 250-byte shards end in a
//     partial block on every SIMD arm, so the row prices the padded
//     vector tail; reported only (no gate).
//   - hash.crc32c_64k_MBps / crc32c_<arm>_64k_MBps: hash::crc32c, the
//     payload integrity checksum, over one 64 KiB value on the active
//     arm and on every arm this host runs (vpclmulqdq, sse4.2, table);
//   - hash.fnv_scalar_MBps: one fnv1a call per key over 4096
//     placement-shaped keys (the digest HRW scoring consumes).
//
// Serving-path codec benches (DESIGN.md §13):
//   - netio.checksum_1k_MBps: netio::body_checksum (the frame body's
//     CRC32C) over a 1 KiB body;
//   - netio.codec_roundtrip_1k_per_sec: encode one 1 KiB PUT frame and
//     decode it back through a FrameDecoder.
//
// Erasure-coded store benches (DESIGN.md §14):
//   - ec.put_64k_per_sec / get_64k_per_sec: rt::ec::put and get of
//     64 KiB values, RS(4,2) over a ShardedStore, no sibling missing;
//   - ec.put_64k_allocs / get_64k_allocs: heap allocations per put and
//     per get on the same store, counted exactly by this binary's global
//     operator new. They do not move with host load, so
//     scripts/check.sh --perf gates them as fresh <= committed.
//   - ec.{put,get}_64k_{fresh,reused}_takes: buffer-recycler takes per
//     put and per get in the same pass (DESIGN.md §11): fresh ones were
//     allocated, reused ones came back parked. The fresh rows are gated
//     like the allocation rows.
//
// Serving-path allocation benches (DESIGN.md §11):
//   - rt.put_1k_allocs / get_1k_allocs: heap allocations of one
//     in-process RuntimeServer::submit_async round trip (1 KiB put,
//     then get) on the default tenant with one idle worker -- so each
//     op runs to completion on the submitter -- counted exactly like
//     the EC rows and gated the same way;
//   - rt.ec_put_64k_allocs / ec_get_64k_allocs: the same round trip
//     with 64 KiB values for an RS(4,2) tenant, which also runs on the
//     submitter, so these rows equal the ec.*_64k_allocs rows: the
//     server adds no allocation of its own.
//
// Every byte-pump, codec and EC row is the best of five trials
// (best_calls_per_sec): on a shared host single trials swing 30-50%.
//
// Output: BENCH_hotpath.json (or $MEMFSS_BENCH_OUT) with rows of
//   {"bench", "metric", "value", "unit", "seed"}
// -- the schema scripts/bench_perf.sh commits at the repo root so future
// PRs have a perf trajectory, and scripts/check.sh --perf regresses
// against. Wall-clock numbers are machine-dependent; the trajectory is
// only meaningful within one machine, which is why the committed file is
// regenerated (baseline rows preserved) rather than diffed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_recycler.hpp"
#include "common/rng.hpp"
#include "erasure/gf256_simd.hpp"
#include "erasure/reed_solomon.hpp"
#include "exp/experiments.hpp"
#include "fs/namespace.hpp"
#include "fs/placement.hpp"
#include "hash/hashes.hpp"
#include "net/fabric.hpp"
#include "netio/frame.hpp"
#include "rt/ec.hpp"
#include "rt/server.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tenant_registry.hpp"
#include "sim/simulator.hpp"

using namespace memfss;

// --- allocation counting -----------------------------------------------------
// Every non-aligned heap allocation of this process passes through here
// (operator new[] forwards to operator new), so a bench can read an
// exact count around the code it measures.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// All three out of line, as the library's own are: where GCC inlines
// only one side of a new/delete pair, it sees malloc() freed by
// operator delete (or the reverse) and warns -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}

namespace {

constexpr std::uint64_t kSeed = 42;

struct Row {
  std::string bench, metric;
  double value = 0.0;
  std::string unit;
  std::uint64_t seed = kSeed;
};

std::vector<Row> g_rows;

void emit(const std::string& bench, const std::string& metric, double value,
          const std::string& unit) {
  g_rows.push_back({bench, metric, value, unit, kSeed});
  std::printf("  %-14s %-28s %14.1f %s\n", bench.c_str(), metric.c_str(),
              value, unit.c_str());
}

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// --- fabric: water-filling recompute cost vs. concurrent flow count ---------

sim::Task<> hold_flow(net::Fabric& fab, NodeId src, NodeId dst, Rate cap,
                      net::CapGroup* grp) {
  // Effectively-infinite flows: the bench measures recompute cost at a
  // fixed population, not completions.
  co_await fab.transfer(src, dst, Bytes{1} << 50, cap, grp);
}

void bench_fabric(std::size_t flows) {
  const std::size_t nodes = 64;
  sim::Simulator sim;
  net::Fabric fab(sim, nodes, net::NicSpec{});
  // One shared ceiling per "victim" destination, like the container caps
  // of scavenged stores: exercises the group-constraint path.
  std::vector<std::unique_ptr<net::CapGroup>> groups;
  for (std::size_t g = 0; g < 8; ++g)
    groups.push_back(std::make_unique<net::CapGroup>(500e6));
  Rng rng(kSeed);
  for (std::size_t i = 0; i < flows; ++i) {
    const NodeId src = static_cast<NodeId>(rng.uniform_u64(0, 31));
    const NodeId dst = static_cast<NodeId>(rng.uniform_u64(32, 63));
    net::CapGroup* grp =
        (dst % 8 < 4) ? groups[dst % groups.size()].get() : nullptr;
    sim.spawn(hold_flow(fab, src, dst, net::Fabric::kUncapped, grp));
  }
  sim.run_until(1.0);  // all arrivals processed, nothing completes
  if (fab.active_flows() != flows) {
    std::fprintf(stderr, "fabric bench: %zu flows active, expected %zu\n",
                 fab.active_flows(), flows);
    std::exit(1);
  }
  // set_nic forces settle+recompute: exactly the per-event hot path.
  const std::size_t reps = flows >= 50000 ? 20 : (flows >= 5000 ? 100 : 400);
  const double t0 = now_sec();
  for (std::size_t r = 0; r < reps; ++r) fab.set_nic(0, net::NicSpec{});
  const double dt = now_sec() - t0;
  emit("fabric", "recompute_per_sec_f" + std::to_string(flows),
       static_cast<double>(reps) / dt, "recompute/s");
}

// --- placement: class-HRW placements/sec ------------------------------------

void bench_placement() {
  fs::ClassMembership members;
  std::vector<NodeId> own, victims;
  for (NodeId n = 0; n < 8; ++n) own.push_back(n);
  for (NodeId n = 8; n < 40; ++n) victims.push_back(n);
  members.set_members(0, own);
  members.set_members(1, victims);
  fs::PlacementEpoch epoch;
  epoch.id = 1;
  epoch.weights = {{0, 0.42}, {1, 0.0}};
  fs::ClassHrwPolicy policy(epoch, members);

  const std::size_t n = 200000;
  volatile NodeId sink = 0;
  double t0 = now_sec();
  for (std::size_t i = 0; i < n; ++i) {
    const auto nodes = policy.place(fs::Namespace::stripe_key(7, i), 2);
    sink = nodes[0];
  }
  double dt = now_sec() - t0;
  (void)sink;
  emit("placement", "places_per_sec", static_cast<double>(n) / dt, "place/s");

  t0 = now_sec();
  for (std::size_t i = 0; i < n; ++i) {
    const auto nodes =
        policy.place(fs::Namespace::stripe_key_digest(7, i), 2);
    sink = nodes[0];
  }
  dt = now_sec() - t0;
  emit("placement", "places_digest_per_sec", static_cast<double>(n) / dt,
       "place/s");
}

// --- simulator: event loop throughput ----------------------------------------

void bench_simulator() {
  sim::Simulator sim;
  const std::uint64_t total = 2000000;
  const std::size_t chains = 64;
  std::uint64_t remaining = total;
  std::function<void()> tick;  // self-rescheduling: the coroutine pattern
  tick = [&] {
    if (remaining > 0) {
      --remaining;
      sim.schedule(1e-7, tick);
    }
  };
  const double t0 = now_sec();
  for (std::size_t c = 0; c < chains; ++c) sim.schedule(0.0, tick);
  sim.run();
  const double dt = now_sec() - t0;
  emit("sim", "events_per_sec",
       static_cast<double>(sim.executed_events()) / dt, "event/s");
}

/// Calls per second of `op(r)`: the best of five trials of at least
/// 0.1 s each. Calls on a shared host are easily disturbed by other
/// load; the fastest trial is the least disturbed.
template <class Op>
double best_calls_per_sec(Op&& op) {
  std::size_t reps = 1;
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    double dt = 0.0;
    do {  // the first trial grows reps until the sample is long enough
      if (trial == 0) reps *= 2;
      const double t0 = now_sec();
      for (std::size_t r = 0; r < reps; ++r) op(r);
      dt = now_sec() - t0;
    } while (trial == 0 && dt < 0.1);
    best = std::max(best, static_cast<double>(reps) / dt);
  }
  return best;
}

// --- erasure: Reed-Solomon stripe coding GB/s --------------------------------

void bench_erasure_kernel(const char* suffix,
                          const erasure::GF256Kernels* kernels) {
  const std::size_t k = 8, m = 3;
  const erasure::ReedSolomon rs(k, m, kernels);
  Rng rng(kSeed);
  std::vector<std::uint8_t> data(1 << 20);
  for (auto& b : data) b = std::uint8_t(rng.next_u64());

  // Encode into caller-owned buffers, as ec::put does, so the number
  // is pure coding cost, not allocator traffic.
  const std::size_t ss = rs.shard_size(data.size());
  std::vector<std::uint8_t> arena((k + m) * ss);
  std::vector<std::uint8_t*> ptrs(k + m);
  for (std::size_t i = 0; i < k + m; ++i) ptrs[i] = arena.data() + i * ss;
  const double encodes = best_calls_per_sec([&](std::size_t) {
    if (!rs.encode_into(data, ptrs.data(), ss).ok()) std::exit(1);
  });
  emit("erasure", std::string("rs_encode") + suffix + "_GBps",
       encodes * static_cast<double>(data.size()) / 1e9, "GB/s");

  // Decode with losses straddling data and parity: shards 0 and 2 (data)
  // and 9 (parity) gone, the worst-case repair read.
  auto lossy = rs.encode(data);
  lossy[0].clear();
  lossy[2].clear();
  lossy[9].clear();
  const double decodes = best_calls_per_sec([&](std::size_t) {
    if (!rs.decode(lossy, data.size()).ok()) std::exit(1);
  });
  emit("erasure", std::string("rs_decode_loss") + suffix + "_GBps",
       decodes * static_cast<double>(data.size()) / 1e9, "GB/s");
}

/// RS(4,2) encode of a 1,000-byte payload: 250-byte shards, so every
/// row pass ends in a partial SIMD block.
void bench_erasure_tail(const char* name, const erasure::GF256Kernels* kernels) {
  const erasure::ReedSolomon rs(4, 2, kernels);
  Rng rng(kSeed);
  std::vector<std::uint8_t> data(1000);
  for (auto& b : data) b = std::uint8_t(rng.next_u64());
  const std::size_t ss = rs.shard_size(data.size());
  std::vector<std::uint8_t> arena(rs.total_shards() * ss);
  std::vector<std::uint8_t*> ptrs(rs.total_shards());
  for (std::size_t i = 0; i < ptrs.size(); ++i) ptrs[i] = arena.data() + i * ss;
  const double encodes = best_calls_per_sec([&](std::size_t) {
    if (!rs.encode_into(data, ptrs.data(), ss).ok()) std::exit(1);
  });
  emit("erasure", std::string("rs42_encode_1000B_") + name + "_GBps",
       encodes * static_cast<double>(data.size()) / 1e9, "GB/s");
}

void bench_erasure() {
  bench_erasure_kernel("", nullptr);  // active (dispatched) kernel
  for (const char* name : erasure::gf256_kernel_names())
    if (const erasure::GF256Kernels* kn = erasure::gf256_kernels_by_name(name)) {
      bench_erasure_kernel((std::string("_") + name).c_str(), kn);
      bench_erasure_tail(name, kn);
    }
}

// --- hash: CRC32C payload checksum and FNV-1a key digest MB/s ----------------

void bench_hash() {
  Rng rng(kSeed);
  std::vector<std::uint8_t> value(64 * 1024);
  for (auto& b : value) b = std::uint8_t(rng.next_u64());
  volatile std::uint32_t crc_sink = 0;
  auto crc_rate = [&](hash::Crc32cFn fn) {
    return best_calls_per_sec([&](std::size_t r) {
             value[0] = std::uint8_t(r);  // defeat hoisting the call out
             crc_sink = fn(value.data(), value.size());
           }) *
           static_cast<double>(value.size()) / 1e6;
  };
  emit("hash", "crc32c_64k_MBps", crc_rate(hash::crc32c), "MB/s");
  for (const char* name : hash::crc32c_kernel_names())
    if (hash::Crc32cFn fn = hash::crc32c_kernel_by_name(name))
      emit("hash", std::string("crc32c_") + name + "_64k_MBps", crc_rate(fn),
           "MB/s");
  (void)crc_sink;

  // Placement-shaped keys: the digests HRW scoring consumes.
  const std::size_t n = 4096;
  std::vector<std::string> keys;
  keys.reserve(n);
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("i12345:" + std::to_string(i) + ":stripe-payload-key");
    bytes += keys.back().size();
  }
  std::vector<std::uint64_t> out(n);
  const double loops = best_calls_per_sec([&](std::size_t) {
    for (std::size_t i = 0; i < n; ++i) out[i] = hash::fnv1a(keys[i]);
  });
  volatile std::uint64_t sink = out[n - 1];
  (void)sink;
  emit("hash", "fnv_scalar_MBps",
       loops * static_cast<double>(bytes) / 1e6, "MB/s");
}

// --- netio: frame checksum MB/s and 1 KiB PUT codec round-trips -------------

void bench_netio() {
  Rng rng(kSeed);
  std::vector<std::uint8_t> body(1024);
  for (auto& b : body) b = std::uint8_t(rng.next_u64());
  volatile std::uint32_t sum_sink = 0;
  const double sums = best_calls_per_sec([&](std::size_t r) {
    body[0] = std::uint8_t(r);  // defeat hoisting the call out
    sum_sink = netio::body_checksum(body.data(), body.size());
  });
  (void)sum_sink;
  emit("netio", "checksum_1k_MBps",
       sums * static_cast<double>(body.size()) / 1e6, "MB/s");

  netio::Frame put;
  put.kind = netio::Frame::Kind::request;
  put.opcode = static_cast<std::uint8_t>(netio::Opcode::put);
  put.key = "k12345";
  put.value = body;
  std::vector<std::uint8_t> wire;
  netio::FrameDecoder dec;
  netio::Frame out;
  emit("netio", "codec_roundtrip_1k_per_sec",
       best_calls_per_sec([&](std::size_t r) {
         put.request_id = r;
         wire.clear();
         netio::encode_frame(put, wire);
         dec.feed(wire);
         if (dec.next(out) != netio::Decode::frame) std::exit(1);
       }),
       "frame/s");
}

// --- ec: erasure-coded put/get of 64 KiB values --------------------------

void bench_ec() {
  // RS(4,2) over a 16-shard ShardedStore: 64 keys preloaded, then puts
  // rewrite them with pool payloads and gets read them back (the
  // inproc_ec_64k value shape, with every sibling resident).
  constexpr std::size_t kKeys = 64, kValue = 64 * 1024;
  const std::string token = "perf";
  const erasure::ReedSolomon rs(4, 2);
  rt::ShardedStore store({16, 256 * units::MiB, token});
  Rng rng(kSeed);
  std::vector<kvstore::Blob> pool;
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<std::uint8_t> v(kValue);
    for (auto& b : v) b = std::uint8_t(rng.next_u64());
    pool.push_back(kvstore::Blob::materialized(std::move(v)));
  }
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < kKeys; ++k) {
    keys.push_back("k" + std::to_string(k));
    if (!rt::ec::put(store, token, keys[k], pool[k % pool.size()], rs).ok())
      std::exit(1);
  }
  emit("ec", "put_64k_per_sec", best_calls_per_sec([&](std::size_t r) {
         if (!rt::ec::put(store, token, keys[r % kKeys],
                          pool[r % pool.size()], rs)
                  .ok())
           std::exit(1);
       }),
       "put/s");
  emit("ec", "get_64k_per_sec", best_calls_per_sec([&](std::size_t r) {
         auto got = rt::ec::get(store, token, keys[r % kKeys]);
         if (!got.ok() || got.value().size() != kValue) std::exit(1);
       }),
       "get/s");

  // Exact allocations and recycler takes per op over one pass of every
  // key.
  auto counts_per_op = [&](const std::string& op_name, auto&& op) {
    const std::uint64_t before = g_allocations.load();
    const RecyclerStats t0 = recycler_stats();
    for (std::size_t k = 0; k < kKeys; ++k) op(k);
    const std::uint64_t allocs = g_allocations.load() - before;
    const RecyclerStats t1 = recycler_stats();
    const auto per_op = [&](std::uint64_t n) {
      return static_cast<double>(n) / kKeys;
    };
    emit("ec", op_name + "_64k_allocs", per_op(allocs), "count");
    emit("ec", op_name + "_64k_fresh_takes",
         per_op(t1.fresh_takes - t0.fresh_takes), "count");
    emit("ec", op_name + "_64k_reused_takes",
         per_op(t1.reused_takes - t0.reused_takes), "count");
  };
  counts_per_op("put", [&](std::size_t k) {
    if (!rt::ec::put(store, token, keys[k], pool[k % pool.size()], rs).ok())
      std::exit(1);
  });
  counts_per_op("get", [&](std::size_t k) {
    if (!rt::ec::get(store, token, keys[k]).ok()) std::exit(1);
  });
  // Degraded: with one data sibling of every key evicted, the same pass
  // of gets, decoding with the tenant's coder as RuntimeServer passes it.
  for (std::size_t k = 0; k < kKeys; ++k)
    (void)store.evict(rt::ec::shard_key(keys[k], k % rs.data_shards()));
  counts_per_op("get_degraded", [&](std::size_t k) {
    bool reconstructed = false;
    if (!rt::ec::get(store, token, keys[k], nullptr, &reconstructed, &rs)
             .ok() ||
        !reconstructed)
      std::exit(1);
  });
}

// --- rt: in-process RuntimeServer round trips --------------------------

/// Emits rt.<prefix>put_<size>_allocs and rt.<prefix>get_<size>_allocs:
/// heap allocations per in-process submit_async round trip of a
/// `value_bytes` put, then a get, on one worker, for the default tenant
/// or (`coded`) an RS(4,2) tenant. The worker is idle at every submit
/// because the submitter waits for each completion, so every op runs to
/// completion on the submitting thread (DESIGN.md §11), and the count is
/// that whole path. Every key is put once first (store nodes, lanes,
/// map entries and parked buffers exist before the count), and the ops
/// are built before counting: the payload copy is the caller's, not the
/// server's.
void bench_rt_round_trips(const std::string& prefix, const std::string& size,
                          std::size_t value_bytes, bool coded) {
  constexpr std::size_t kKeys = 64;
  rt::TenantRegistry tenants;
  std::uint32_t tenant = 0;
  if (coded) {
    rt::TenantConfig cfg;
    cfg.name = "ec";
    cfg.rs = {4, 2};
    tenant = tenants.register_tenant(cfg).value();
  }
  rt::ShardedStore store({16, 64 * units::MiB, "perf"});
  rt::RuntimeServer::Options opt;
  opt.tenants = &tenants;
  rt::RuntimeServer server(store, opt);
  std::atomic<bool> done{false};
  auto round_trip = [&](rt::Op op) {
    done.store(false);
    server.submit_async("perf", std::move(op), [&done](rt::OpResult r) {
      if (r.code != Errc::ok) std::exit(1);
      done.store(true);
    });
    while (!done.load()) std::this_thread::yield();
  };
  // Put values come from the buffer recycler, as the frame decoder takes
  // a received value, so the parks of the values the server drops
  // balance these takes instead of growing the recycler's lists.
  auto ops = [&](rt::Op::Type type) {
    std::vector<rt::Op> out;
    for (std::size_t k = 0; k < kKeys; ++k) {
      rt::Op op{type, "k" + std::to_string(k), {}, tenant};
      if (type == rt::Op::Type::put) {
        auto v = take_buffer(value_bytes);
        std::fill(v.begin(), v.end(), std::uint8_t(k));
        op.value = kvstore::Blob::materialized(std::move(v));
      }
      out.push_back(std::move(op));
    }
    return out;
  };
  for (auto& op : ops(rt::Op::Type::put)) round_trip(std::move(op));
  auto allocs_per_op = [&](std::vector<rt::Op> batch) {
    const std::uint64_t before = g_allocations.load();
    for (auto& op : batch) round_trip(std::move(op));
    return static_cast<double>(g_allocations.load() - before) / kKeys;
  };
  auto puts = ops(rt::Op::Type::put);
  emit("rt", prefix + "put_" + size + "_allocs",
       allocs_per_op(std::move(puts)), "count");
  auto gets = ops(rt::Op::Type::get);
  emit("rt", prefix + "get_" + size + "_allocs",
       allocs_per_op(std::move(gets)), "count");
}

void bench_rt() {
  bench_rt_round_trips("", "1k", 1024, false);
  bench_rt_round_trips("ec_", "64k", 64 * 1024, true);
}

// --- macro: fig2-shaped dd bag -----------------------------------------------

void bench_fig2_ddbag() {
  exp::Fig2Options opt;
  opt.dd_tasks = 2048;              // paper-scale Fig. 2 point: a dd bag
  opt.dd_bytes = 128 * units::MiB;  // striped over own+victim nodes
  const double t0 = now_sec();
  const auto row = exp::run_fig2(0.25, opt);
  const double dt = now_sec() - t0;
  emit("fig2_ddbag", "wall_clock_sec", dt, "s");
  emit("fig2_ddbag", "sim_runtime_sec", row.runtime, "sim-s");
}

void write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %.6g, "
                 "\"unit\": \"%s\", \"seed\": %llu}%s\n",
                 r.bench.c_str(), r.metric.c_str(), r.value, r.unit.c_str(),
                 (unsigned long long)r.seed,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("(wrote %s)\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : std::getenv("MEMFSS_BENCH_OUT");
  if (!out) out = "BENCH_hotpath.json";
  std::printf("perf_hotpath: seed=%llu gf256_kernel=%s crc32c_kernel=%s\n",
              (unsigned long long)kSeed, erasure::gf256_kernel_name(),
              hash::crc32c_kernel_name());

  for (std::size_t flows : {100, 1000, 10000, 100000})
    bench_fabric(flows);
  bench_placement();
  bench_simulator();
  bench_erasure();
  bench_hash();
  bench_netio();
  bench_ec();
  bench_rt();
  bench_fig2_ddbag();
  write_json(out);
  return 0;
}
