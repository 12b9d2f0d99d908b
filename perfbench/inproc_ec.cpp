// inproc_ec_64k: the same store used with large values, sibling fan-out
// and degraded reads, and no wire. One submitter thread calls
// RuntimeServer::submit_async for an RS(4,2) tenant on 2 workers with
// at most kWindow ops in flight. 64 KiB values, 80:20 get:put, keys
// Zipf(0.99) over 4096 (about 384 MiB resident). Before every 100th op
// the seeded input evicts one data sibling of that op's key with
// ShardedStore::evict -- a victim reclaiming memory -- so gets
// reconstruct.
//
// Ops on one key route to one worker and run there in submission order,
// so a sequential map updated at submit time predicts every reply;
// every get's payload, degraded ones included, is compared byte for
// byte (and by FNV checksum) with the payload the model expects.
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/rng.hpp"
#include "erasure/reed_solomon.hpp"
#include "harness.hpp"
#include "hash/hashes.hpp"
#include "rt/ec.hpp"
#include "rt/opstream.hpp"
#include "rt/server.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tenant_registry.hpp"

namespace perfbench {

using namespace memfss;

namespace {

constexpr std::size_t kValue = 64 * 1024;
constexpr std::uint32_t kKeys = 4096;
constexpr std::size_t kShards = 16;
constexpr std::size_t kWorkers = 2;
constexpr std::uint32_t kWindow = 8;
constexpr std::size_t kPool = 64;        ///< distinct put payloads
constexpr std::size_t kEvictEvery = 100;
constexpr std::size_t kStreamOps = 1u << 18;  ///< generated ops, cycled
constexpr std::size_t kWindowOps = 1024;      ///< ops per measurement window
constexpr std::size_t kCountOps = 1024;       ///< fixed prefix for counts
constexpr int kSetups = 4;  ///< set-ups per untraced run
constexpr std::size_t kK = 4, kM = 2;
const std::string kToken = "perfbench";

struct EcOp {
  bool get;
  std::uint32_t key;
  std::uint32_t value;              ///< payload pool index (puts)
  int evict_sibling;                ///< data sibling evicted first, or -1
};

/// The seeded input: rt's shared stream generator for type and key,
/// plus the payload choice and the eviction schedule. An eviction never
/// takes a second sibling of a key that already lost one since its last
/// put, so every stripe stays readable (RS(4,2) survives two losses and
/// the degraded-read probe takes the second).
class OpStream {
 public:
  explicit OpStream(std::uint64_t seed)
      : seed_(seed),
        ops_(rt::generate_stream(
            rt::StreamOptions{seed, kStreamOps, 0.8, 0.0, 0.99, kKeys}, 0)),
        missing_(kKeys, -1) {}
  EcOp next() {
    const std::size_t i = pos_++;
    const rt::GenOp& g = ops_[i % ops_.size()];
    std::uint64_t x = seed_ ^ (0x9e3779b97f4a7c15ull * (i + 1));
    const std::uint64_t h = splitmix64(x);
    EcOp op;
    op.get = g.type == rt::Op::Type::get;
    op.key = g.key_index;
    op.value = static_cast<std::uint32_t>(h % kPool);
    op.evict_sibling = -1;
    int& missing = missing_[op.key];
    if (i % kEvictEvery == kEvictEvery - 1) {
      if (missing < 0) missing = static_cast<int>((h >> 32) % kK);
      op.evict_sibling = missing;
    }
    if (!op.get) missing = -1;
    return op;
  }

 private:
  std::uint64_t seed_;
  std::vector<rt::GenOp> ops_;
  std::vector<int> missing_;  ///< data sibling evicted since the last put
  std::size_t pos_ = 0;
};

bool payload_ok(const kvstore::Blob& got, const kvstore::Blob& want) {
  return got.size() == want.size() && got.checksum() == want.checksum() &&
         std::memcmp(got.bytes().data(), want.bytes().data(), got.size()) == 0;
}

/// Tenant table with one RS(4,2) tenant, the store, and the server.
struct Stack {
  rt::TenantRegistry tenants;
  std::uint32_t tenant = 0;
  std::unique_ptr<rt::ShardedStore> store;
  std::unique_ptr<rt::RuntimeServer> server;
  std::vector<std::uint32_t> model;  ///< payload index per key

  Stack(const std::vector<kvstore::Blob>& pool, Report& r) : model(kKeys) {
    rt::TenantConfig cfg;
    cfg.name = "ec";
    cfg.rs = {kK, kM};
    auto slot = tenants.register_tenant(cfg);
    if (!slot.ok()) throw std::runtime_error("cannot register the EC tenant");
    tenant = slot.value();
    store = std::make_unique<rt::ShardedStore>(
        rt::ShardedStore::Options{kShards, 1024 * units::MiB, kToken});
    const auto& rs = *tenants.rs_coder(tenant);
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      model[k] = k % kPool;
      if (!rt::ec::put(*store, kToken, rt::loadgen_key(k), pool[model[k]], rs,
                       nullptr, tenant)
               .ok())
        r.fail("preload put failed");
    }
    rt::RuntimeServer::Options opt;
    opt.threads = kWorkers;
    opt.tenants = &tenants;
    server = std::make_unique<rt::RuntimeServer>(*store, opt);
  }
  ~Stack() { server->shutdown(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const erasure::ReedSolomon& rs() const { return *tenants.rs_coder(tenant); }

  void evict(const EcOp& op) {
    if (op.evict_sibling >= 0)
      (void)store->evict(
          rt::ec::shard_key(rt::loadgen_key(op.key),
                            static_cast<std::size_t>(op.evict_sibling)));
  }

  rt::Op make_op(const EcOp& op, const std::vector<kvstore::Blob>& pool) const {
    rt::Op o;
    o.type = op.get ? rt::Op::Type::get : rt::Op::Type::put;
    o.key = rt::loadgen_key(op.key);
    o.tenant = tenant;
    if (!op.get) o.value = pool[op.value];
    return o;
  }
};

struct LoopStats {
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  double seconds = 0;
};

/// The closed loop: one submitter, at most kWindow ops in flight.
/// Latencies go to `w` when given.
LoopStats run_loop(Stack& st, OpStream& in, const std::vector<kvstore::Blob>& pool,
                   double seconds, Report& r, SpanLog& log, Windows* w = nullptr) {
  // Shared with the completions, which run on the workers and may still
  // be inside notify_one() when the submitter sees the window drain.
  struct Shared {
    std::mutex mu;  // guards `w` and the span log
    std::atomic<std::uint32_t> inflight{0};
    std::atomic<std::uint64_t> completed{0}, wrong{0};
  };
  auto sh = std::make_shared<Shared>();
  LoopStats s;
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration<double>(seconds);
  if (w) w->restart(t0);
  std::uint64_t submitted = 0;
  while (Clock::now() < stop) {
    for (std::uint32_t n = sh->inflight.load(); n >= kWindow; n = sh->inflight.load())
      sh->inflight.wait(n);
    const EcOp op = in.next();
    st.evict(op);
    const std::uint32_t expect = st.model[op.key];
    if (!op.get) st.model[op.key] = op.value;
    s.gets += op.get;
    rt::Op o = st.make_op(op, pool);
    sh->inflight.fetch_add(1);
    const auto sent = Clock::now();
    st.server->submit_async(
        kToken, std::move(o),
        [sh, &pool, &log, w, op, expect, sent](rt::OpResult res) {
          const auto done = Clock::now();
          if (res.code != Errc::ok || (op.get && !payload_ok(res.value, pool[expect])))
            sh->wrong.fetch_add(1);
          {
            std::lock_guard lk(sh->mu);
            if (w) w->add(us_between(sent, done), done);
            log.record("ec.op", sent, done);
          }
          sh->completed.fetch_add(1);
          sh->inflight.fetch_sub(1);
          sh->inflight.notify_one();
        });
    ++submitted;
  }
  for (std::uint32_t n = sh->inflight.load(); n > 0; n = sh->inflight.load())
    sh->inflight.wait(n);
  s.seconds = seconds_between(t0, Clock::now());
  s.ops = sh->completed.load();
  r.attempted += submitted;
  for (std::uint64_t i = 0; i < sh->wrong.load(); ++i)
    r.fail("reply disagrees with the reference model");
  return s;
}

// --- per-layer probes -------------------------------------------------------

/// One op submitted at a time; the caller blocks on an EventWaiter as
/// the TcpServer reactor blocks in epoll_wait. Returns microseconds.
double server_one(Stack& st, const EcOp& op, const std::vector<kvstore::Blob>& pool,
                  EventWaiter& waiter, Report& r, SpanLog& log) {
  st.evict(op);
  const std::uint32_t expect = st.model[op.key];
  if (!op.get) st.model[op.key] = op.value;
  rt::OpResult result;
  const auto t0 = Clock::now();
  st.server->submit_async(kToken, st.make_op(op, pool), [&](rt::OpResult res) {
    result = std::move(res);
    waiter.notify();
  });
  waiter.wait();
  const auto t1 = Clock::now();
  log.record("rt.server", t0, t1);
  ++r.attempted;
  if (result.code != Errc::ok || (op.get && !payload_ok(result.value, pool[expect])))
    r.fail("server reply disagrees with the reference model");
  return us_between(t0, t1);
}

/// One op through rt::ec directly on the submitter thread.
struct EcCall {
  double us = 0;
  bool reconstructed = false;
};

EcCall ec_one(Stack& st, const EcOp& op, const std::vector<kvstore::Blob>& pool,
              Report& r, SpanLog& log) {
  st.evict(op);
  const std::string key = rt::loadgen_key(op.key);
  EcCall c;
  bool ok = false;
  const auto t0 = Clock::now();
  if (op.get) {
    auto got = rt::ec::get(*st.store, kToken, key, nullptr, &c.reconstructed);
    ok = got.ok() && payload_ok(got.value(), pool[st.model[op.key]]);
  } else {
    ok = rt::ec::put(*st.store, kToken, key, pool[op.value], st.rs(), nullptr,
                     st.tenant)
             .ok();
    st.model[op.key] = op.value;
  }
  const auto t1 = Clock::now();
  log.record(op.get ? (c.reconstructed ? "ec.get_degraded" : "ec.get") : "ec.put",
             t0, t1);
  c.us = us_between(t0, t1);
  ++r.attempted;
  if (!ok) r.fail("ec reply disagrees with the reference model");
  return c;
}

/// Plain ShardedStore replay of the op stream (64 KiB blobs, no EC), on
/// its own store so its 256 MiB are gone before the EC stack is built.
void store_layer(std::uint64_t seed, const std::vector<kvstore::Blob>& pool,
                 double budget_s, Report& r, SpanLog& log) {
  rt::ShardedStore store({kShards, 512 * units::MiB, kToken});
  std::vector<std::uint32_t> model(kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    model[k] = k % kPool;
    if (!store.put(kToken, rt::loadgen_key(k), pool[model[k]]).ok())
      r.fail("plain preload put failed");
  }
  OpStream in(seed ^ 0x57013);
  auto one = [&] {
    const EcOp op = in.next();
    const std::string key = rt::loadgen_key(op.key);
    kvstore::Blob value = op.get ? kvstore::Blob{} : pool[op.value];
    bool ok = false;
    const auto t0 = Clock::now();
    if (op.get) {
      auto got = store.get(kToken, key);
      ok = got.ok() && payload_ok(got.value(), pool[model[op.key]]);
    } else {
      ok = store.put(kToken, key, std::move(value)).ok();
      model[op.key] = op.value;
    }
    const auto t1 = Clock::now();
    log.record("rt.store", t0, t1);
    ++r.attempted;
    if (!ok) r.fail("store reply disagrees with the reference model");
    return us_between(t0, t1);
  };
  {
    AllocCount count;
    for (std::size_t i = 0; i < kCountOps; ++i) one();
    r.add("rt.store.allocs_per_op",
          static_cast<double>(count.allocations()) / kCountOps, "count");
  }
  std::vector<double> us;
  const auto stop = Clock::now() + std::chrono::duration<double>(budget_s);
  do us.push_back(one());
  while (Clock::now() < stop);
  r.add("rt.store_us", mean(us), "us");
}

std::uint64_t store_ops(const rt::ShardedStore& store) {
  const auto s = store.stats();
  return s.puts + s.gets + s.dels;
}

}  // namespace

void run_inproc_ec(const RunArgs& a, SpanLog& log, Report& r) {
  const auto pool = make_payloads(a.seed, kPool, kValue);
  r.note("input: 64 KiB values, 80:20 get:put, keys Zipf(0.99) over 4096, "
         "RS(4,2) tenant, 2 workers, window 8, evict a data sibling every "
         "100th op");
  const double user_bytes = static_cast<double>(std::size_t{kKeys} * kValue);

  if (!a.trace) {
    // Half the set-ups run before the measured phase and half after it,
    // so their median spans the run's host conditions.
    std::vector<double> setup;
    std::unique_ptr<Stack> st;
    auto set_up = [&] {
      st.reset();
      const auto t0 = Clock::now();
      st = std::make_unique<Stack>(pool, r);
      setup.push_back(seconds_between(t0, Clock::now()));
    };
    for (int i = 0; i < kSetups / 2; ++i) set_up();
    OpStream in(a.seed);
    (void)run_loop(*st, in, pool, std::min(1.0, a.seconds / 10), r, log);
    Windows w(kWindowOps);
    (void)run_loop(*st, in, pool, a.seconds, r, log, &w);
    w.report(r, "ops");
    r.add("stored_bytes_per_user_byte",
          static_cast<double>(st->store->used()) / user_bytes, "ratio");
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    for (int i = kSetups / 2; i < kSetups; ++i) set_up();
    r.add("setup_s", quantile(setup, 0.5), "s");
    return;
  }

  // Traced. Counted prefixes run first, on the freshly preloaded stack,
  // so the allocation and store-op counts depend on the seed alone.
  const double S = a.seconds;
  store_layer(a.seed, pool, 0.1 * S, r, log);
  Stack st(pool, r);
  OpStream in(a.seed);
  EventWaiter waiter;
  {
    const std::uint64_t ops0 = store_ops(*st.store);
    AllocCount count;
    for (std::size_t i = 0; i < kCountOps; ++i) (void)ec_one(st, in.next(), pool, r, log);
    r.add("ec.allocs_per_op", static_cast<double>(count.allocations()) / kCountOps,
          "count");
    r.add("ec.store_ops_per_op",
          static_cast<double>(store_ops(*st.store) - ops0) / kCountOps, "count");
  }
  {
    AllocCount count;
    for (std::size_t i = 0; i < kCountOps; ++i)
      (void)server_one(st, in.next(), pool, waiter, r, log);
    r.add("rt.server.allocs_per_op",
          static_cast<double>(count.allocations()) / kCountOps, "count");
  }

  (void)run_loop(st, in, pool, std::min(1.0, S / 10), r, log);
  const double reconstructed0 =
      static_cast<double>(st.server->metrics().counter_value("rt.ec.reconstructed_gets"));
  Windows w(kWindowOps);
  const LoopStats plain = run_loop(st, in, pool, 0.2 * S, r, log, &w);
  w.report(r, "ops");
  log.enable(true);
  const LoopStats traced = run_loop(st, in, pool, 0.1 * S, r, log);
  const double overhead = (static_cast<double>(plain.ops) / plain.seconds) /
                              (static_cast<double>(traced.ops) / traced.seconds) -
                          1.0;
  const double reconstructed =
      static_cast<double>(st.server->metrics().counter_value("rt.ec.reconstructed_gets")) -
      reconstructed0;

  // rt::ec called directly over the same stream, in rounds interleaved
  // with the one-in-flight server probe so both see the same host
  // conditions. Each direct get is followed by an explicit degraded read
  // (one data sibling evicted, then restored).
  std::vector<double> put_us, get_us, degraded_us, all_us, server_us;
  Rng pick(a.seed ^ 0xde9);
  constexpr int kRounds = 10;
  const double slice = 0.3 * S / (2 * kRounds);
  for (int round = 0; round < kRounds; ++round) {
    auto stop = Clock::now() + std::chrono::duration<double>(slice);
    do {
      const EcOp op = in.next();
      const EcCall c = ec_one(st, op, pool, r, log);
      all_us.push_back(c.us);
      (op.get ? (c.reconstructed ? degraded_us : get_us) : put_us).push_back(c.us);
      if (!op.get) continue;
      const std::string sib = rt::ec::shard_key(rt::loadgen_key(op.key),
                                                pick.uniform_u64(0, kK - 1));
      auto saved = st.store->evict(sib);
      EcOp again = op;
      again.evict_sibling = -1;
      const EcCall d = ec_one(st, again, pool, r, log);
      if (d.reconstructed) degraded_us.push_back(d.us);
      if (saved &&
          !st.store->put(kToken, sib, std::move(*saved), nullptr, st.tenant).ok())
        r.fail("sibling restore failed");
    } while (Clock::now() < stop);
    stop = Clock::now() + std::chrono::duration<double>(slice);
    do server_us.push_back(server_one(st, in.next(), pool, waiter, r, log));
    while (Clock::now() < stop);
  }
  const double ec_mix_us = mean(all_us);

  // The byte pumps underneath: one 64 KiB RS(4,2) stripe, one data shard
  // lost for decode, and the manifest's FNV over the payload.
  const auto& payload = pool[0].bytes();
  const erasure::ReedSolomon rs(kK, kM);
  const std::size_t ss = rs.shard_size(payload.size());
  std::vector<std::uint8_t> arena((kK + kM) * ss);
  std::vector<std::uint8_t*> ptrs(kK + kM);
  for (std::size_t i = 0; i < kK + kM; ++i) ptrs[i] = arena.data() + i * ss;
  auto lossy = rs.encode(payload);
  lossy[1].clear();
  bool coded = true;
  const double enc_us = per_call_us(log, "erasure.encode", 16, 0.05 * S, [&](std::size_t) {
    coded = coded && rs.encode_into(payload, ptrs.data(), ss).ok();
  });
  const double dec_us = per_call_us(log, "erasure.decode", 16, 0.05 * S, [&](std::size_t) {
    auto d = rs.decode(lossy, payload.size());
    coded = coded && d.ok() && std::memcmp(d.value().data(), payload.data(),
                                           payload.size()) == 0;
  });
  if (!coded) r.fail("RS(4,2) round trip failed");
  volatile std::uint64_t sink = 0;
  const double fnv_us = per_call_us(log, "hash.fnv_payload", 16, 0.05 * S, [&](std::size_t) {
    sink = hash::fnv1a({reinterpret_cast<const char*>(payload.data()), payload.size()});
  });
  (void)sink;

  const double srv = mean(server_us);
  r.add("rt.server_us", srv, "us");
  r.add("rt.handoff_us", srv - ec_mix_us, "us");
  r.add("ec.put_us", mean(put_us), "us");
  r.add("ec.get_us", mean(get_us), "us");
  r.add("ec.get_degraded_us", mean(degraded_us), "us");
  r.add("ec.degraded_get_frac",
        reconstructed / static_cast<double>(plain.gets + traced.gets), "frac");
  r.add("erasure.encode_us", enc_us, "us");
  r.add("erasure.decode_us", dec_us, "us");
  r.add("hash.fnv_payload_us", fnv_us, "us");
  r.add("trace_overhead_frac", overhead, "frac");
}

}  // namespace perfbench
