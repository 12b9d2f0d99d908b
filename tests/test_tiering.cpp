// Tiering invariants (DESIGN.md §16): coldest-prefix demotion victims,
// hot+cold conservation, no dual residency, promote∘demote round-trips,
// and seed-deterministic replay of randomized demote/promote/crash
// interleavings. Server-level properties use a bare kvstore rig; the
// demote-coldest-first evacuation property drives the real filesystem
// pressure path through an exp::Scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exp/experiments.hpp"
#include "exp/scenario.hpp"
#include "exp/tier.hpp"
#include "fs/client.hpp"
#include "kvstore/server.hpp"
#include "kvstore/tier.hpp"
#include "sim/sync.hpp"
#include "co_test.hpp"

namespace memfss::kvstore {
namespace {

struct Rig {
  sim::Simulator sim;
  net::Fabric fabric;
  sim::FluidResource cpu;
  sim::FluidResource membw;
  sim::MemoryPool mem;
  obs::Observability obs;

  Rig()
      : fabric(sim, 4, net::NicSpec{1e9, 1e9, 0.001}),
        cpu(sim, 16.0),
        membw(sim, 1e12),
        mem(1 << 30),
        obs(sim) {}

  ResourceHooks hooks() {
    return ResourceHooks{&cpu, &membw, &mem, nullptr, &obs};
  }
};

std::unique_ptr<ColdTier> make_tier(Bytes cap = 1 << 30) {
  return std::make_unique<ColdTier>(cap, TierCosts{});
}

/// Invariant: every resident key lives in exactly one tier.
void expect_no_dual_residency(Server& srv) {
  for (const auto& k : srv.all_keys()) {
    const bool hot = srv.store().peek(k) != nullptr;
    const bool cold = srv.tier() && srv.tier()->peek(k) != nullptr;
    EXPECT_TRUE(hot != cold) << "key " << k << " hot=" << hot
                             << " cold=" << cold;
  }
}

/// Invariant: pool + tier accounting matches the resident key set.
void expect_conservation(Rig& rig, Server& srv) {
  Bytes hot = 0, cold = 0;
  for (const auto& k : srv.all_keys()) {
    const auto sz = srv.resident_size("t", k);
    ASSERT_TRUE(sz.ok());
    const Bytes acc = sz.value() + Store::kPerKeyOverhead;
    if (srv.store().peek(k) != nullptr)
      hot += acc;
    else
      cold += acc;
  }
  EXPECT_EQ(srv.store().used(), hot);
  EXPECT_EQ(rig.mem.used(), hot);  // cold bytes live outside the pool
  EXPECT_EQ(srv.tier_bytes(), cold);
}

TEST(Tiering, DemotionVictimsAreColdestPrefix) {
  Rig rig;
  Server srv(rig.sim, rig.fabric, 1, 1 << 30, "t", rig.hooks());
  srv.attach_tier(make_tier(), 1.0);
  rig.sim.spawn([](Server& s) -> sim::Task<> {
    for (int i = 0; i < 8; ++i)
      CO_ASSERT_OK(co_await s.put(0, "t", "k" + std::to_string(i),
                                  Blob::ghost(1000 + i)));
    // Heat a suffix with distinct frequencies so the order is nontrivial.
    for (int i = 4; i < 8; ++i)
      for (int touches = 0; touches < i; ++touches)
        (void)co_await s.get(0, "t", "k" + std::to_string(i));

    const auto order = s.demotion_order();
    CO_ASSERT_TRUE(order.size() == 8u);
    // Demote five; the victims must be exactly the coldest prefix.
    for (std::size_t i = 0; i < 5; ++i)
      CO_ASSERT_OK(co_await s.demote_key(order[i]));
    for (std::size_t i = 0; i < order.size(); ++i) {
      const bool cold = s.tier()->peek(order[i]) != nullptr;
      CO_ASSERT_TRUE(cold == (i < 5));
    }
  }(srv));
  rig.sim.run();
  expect_no_dual_residency(srv);
  expect_conservation(rig, srv);
}

TEST(Tiering, ConservationAcrossDemotePromoteDelete) {
  Rig rig;
  Server srv(rig.sim, rig.fabric, 1, 1 << 30, "t", rig.hooks());
  srv.attach_tier(make_tier(), 1.0);
  rig.sim.spawn([](Rig& r, Server& s) -> sim::Task<> {
    for (int i = 0; i < 6; ++i)
      CO_ASSERT_OK(co_await s.put(0, "t", "k" + std::to_string(i),
                                  Blob::ghost(500 * (i + 1))));
    const Bytes before = r.mem.used();
    CO_ASSERT_OK(co_await s.demote_key("k0"));
    CO_ASSERT_OK(co_await s.demote_key("k3"));
    // Demotion returns pool bytes; total accounted is unchanged.
    CO_ASSERT_TRUE(r.mem.used() < before);
    CO_ASSERT_TRUE(r.mem.used() + s.tier_bytes() == before);
    CO_ASSERT_OK(co_await s.promote_key("k0"));
    CO_ASSERT_OK(co_await s.del(0, "t", "k3"));  // cold delete
    CO_ASSERT_TRUE(s.tier_bytes() == 0u);
  }(rig, srv));
  rig.sim.run();
  expect_no_dual_residency(srv);
  expect_conservation(rig, srv);
}

// tier.resident_bytes is one gauge every tiered server adds its deltas
// to: it must read the sum of tier_bytes() after every cold-side move.
TEST(Tiering, SharedResidentGaugeSumsEveryServersTier) {
  Rig rig;
  Server s1(rig.sim, rig.fabric, 1, 1 << 30, "t", rig.hooks());
  Server s2(rig.sim, rig.fabric, 2, 1 << 30, "t", rig.hooks());
  Server s3(rig.sim, rig.fabric, 3, 1 << 30, "t", rig.hooks());
  for (Server* s : {&s1, &s2, &s3}) s->attach_tier(make_tier(), 1.0);
  s3.crash();  // refuses every migration sent to it
  rig.sim.spawn([](Rig& r, Server& a, Server& b, Server& dead)
                    -> sim::Task<> {
    const auto& gauge = r.obs.metrics.gauge("tier.resident_bytes");
    auto sums = [&] {
      return gauge.value() ==
             static_cast<double>(a.tier_bytes() + b.tier_bytes());
    };
    for (const char* k : {"k5", "k1", "k3", "k2", "k4", "k0"})
      CO_ASSERT_OK(co_await a.put(0, "t", k, Blob::ghost(1000)));
    CO_ASSERT_OK(co_await b.put(0, "t", "x", Blob::ghost(3000)));
    for (const char* k : {"k5", "k1", "k3", "k4", "k0"})
      CO_ASSERT_OK(co_await a.demote_key(k));
    CO_ASSERT_OK(co_await b.demote_key("x"));
    CO_ASSERT_TRUE(a.tier_bytes() > 0 && b.tier_bytes() > 0 && sums());

    // Overwrite of a cold key: the stale cold copy goes.
    CO_ASSERT_OK(co_await a.put(0, "t", "k3", Blob::ghost(500)));
    CO_ASSERT_TRUE(a.tier()->peek("k3") == nullptr && sums());
    // Cold delete.
    CO_ASSERT_OK(co_await a.del(0, "t", "k5"));
    CO_ASSERT_TRUE(sums());
    // Migration of a cold key lands hot on the destination.
    CO_ASSERT_OK(co_await a.migrate_key("t", "k1", b));
    CO_ASSERT_TRUE(b.store().peek("k1") != nullptr && sums());
    // A refused migration puts the cold copy back.
    const Status refused = co_await a.migrate_key("t", "k4", dead);
    CO_ASSERT_FALSE(refused.ok());
    CO_ASSERT_TRUE(a.tier()->peek("k4") != nullptr && sums());

    // Listing: hot keys first, then the cold keys in sorted order.
    const auto keys = a.all_keys();
    const std::vector<std::string> cold(keys.end() - 2, keys.end());
    CO_ASSERT_TRUE(keys.size() == 4u);
    CO_ASSERT_TRUE((cold == std::vector<std::string>{"k0", "k4"}));
    CO_ASSERT_TRUE((std::set<std::string>(keys.begin(), keys.begin() + 2) ==
                    std::set<std::string>{"k2", "k3"}));
  }(rig, s1, s2, s3));
  rig.sim.run();
  for (Server* s : {&s1, &s2}) {
    expect_no_dual_residency(*s);
  }
}

TEST(Tiering, PromoteDemoteRoundTripsBytes) {
  Rig rig;
  Server srv(rig.sim, rig.fabric, 1, 1 << 30, "t", rig.hooks());
  srv.attach_tier(make_tier(), 1.0);
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  rig.sim.spawn([](Server& s, std::vector<std::uint8_t> bytes) -> sim::Task<> {
    const Blob original = Blob::materialized(bytes);
    CO_ASSERT_OK(co_await s.put(0, "t", "blob", original));
    CO_ASSERT_OK(co_await s.demote_key("blob"));
    CO_ASSERT_TRUE(s.store().peek("blob") == nullptr);
    CO_ASSERT_TRUE(s.tier()->peek("blob") != nullptr);
    CO_ASSERT_OK(co_await s.promote_key("blob"));
    CO_ASSERT_TRUE(s.tier()->peek("blob") == nullptr);
    auto got = co_await s.get(0, "t", "blob");
    CO_ASSERT_OK(got);
    CO_ASSERT_TRUE(got.value() == original);
    CO_ASSERT_TRUE(got.value().verify());
  }(srv, payload));
  rig.sim.run();
}

TEST(Tiering, ColdHitPromotesOnAccessAndCounts) {
  Rig rig;
  Server srv(rig.sim, rig.fabric, 1, 1 << 30, "t", rig.hooks());
  srv.attach_tier(make_tier(), 1.0);
  rig.sim.spawn([](Rig& r, Server& s) -> sim::Task<> {
    CO_ASSERT_OK(co_await s.put(0, "t", "k", Blob::ghost(10000)));
    CO_ASSERT_OK(co_await s.demote_key("k"));
    auto got = co_await s.get(0, "t", "k");  // cold hit
    CO_ASSERT_OK(got);
    CO_ASSERT_TRUE(got.value().size() == 10000u);
    // Promote-on-access: the key is hot again and the tier is empty.
    CO_ASSERT_TRUE(s.store().peek("k") != nullptr);
    CO_ASSERT_TRUE(s.tier()->peek("k") == nullptr);
    CO_ASSERT_TRUE(r.obs.metrics.counter("tier.cold_hits").value() == 1u);
    CO_ASSERT_TRUE(r.obs.metrics.counter("tier.demotions").value() == 1u);
    CO_ASSERT_TRUE(r.obs.metrics.counter("tier.promotions").value() == 1u);
    CO_ASSERT_TRUE(
        r.obs.metrics.histogram_summary("tier.cold_hit_latency").count == 1u);
  }(rig, srv));
  rig.sim.run();
  expect_no_dual_residency(srv);
  expect_conservation(rig, srv);
}

TEST(Tiering, ColdHitIsSlowerThanHotHit) {
  // The cold path pays the device access latency + bandwidth; a hot get
  // of the same size must be strictly cheaper.
  auto timed_get = [](bool demote_first) {
    Rig rig;
    Server srv(rig.sim, rig.fabric, 1, 1 << 30, "t", rig.hooks());
    srv.attach_tier(make_tier(), 1.0);
    SimTime start = 0.0, done = 0.0;
    rig.sim.spawn([](Rig& r, Server& s, bool demote, SimTime& t0,
                     SimTime& t1) -> sim::Task<> {
      CO_ASSERT_OK(co_await s.put(0, "t", "k", Blob::ghost(1 << 20)));
      if (demote) CO_ASSERT_OK(co_await s.demote_key("k"));
      t0 = r.sim.now();
      CO_ASSERT_OK(co_await s.get(0, "t", "k"));
      t1 = r.sim.now();
    }(rig, srv, demote_first, start, done));
    rig.sim.run();
    return done - start;
  };
  const SimTime hot = timed_get(false);
  const SimTime cold = timed_get(true);
  EXPECT_GT(cold, hot);
}

TEST(Tiering, DemoteRefusedWhenTierFull) {
  Rig rig;
  Server srv(rig.sim, rig.fabric, 1, 1 << 30, "t", rig.hooks());
  srv.attach_tier(make_tier(2000), 1.0);  // fits ~1 entry
  rig.sim.spawn([](Server& s) -> sim::Task<> {
    CO_ASSERT_OK(co_await s.put(0, "t", "a", Blob::ghost(1500)));
    CO_ASSERT_OK(co_await s.put(0, "t", "b", Blob::ghost(1500)));
    CO_ASSERT_OK(co_await s.demote_key("a"));
    const Status st = co_await s.demote_key("b");
    CO_ASSERT_TRUE(st.code() == Errc::out_of_memory);
    // A refused demotion leaves the entry hot and intact.
    CO_ASSERT_TRUE(s.store().peek("b") != nullptr);
    CO_ASSERT_TRUE(s.tier()->peek("b") == nullptr);
  }(srv));
  rig.sim.run();
  expect_no_dual_residency(srv);
  expect_conservation(rig, srv);
}

TEST(Tiering, CrashMidDemotionLosesTierWithNode) {
  Rig rig;
  Server srv(rig.sim, rig.fabric, 1, 1 << 30, "t", rig.hooks());
  // Glacial device: the 1 MiB demotion write takes ~1 s, so a crash at
  // t=0.5 lands mid-flight deterministically.
  TierCosts slow;
  slow.write_bw = 1e6;
  srv.attach_tier(std::make_unique<ColdTier>(1 << 30, slow), 1.0);
  Status demote_st;
  rig.sim.spawn([](Server& s, Status& out) -> sim::Task<> {
    CO_ASSERT_OK(co_await s.put(0, "t", "k", Blob::ghost(1 << 20)));
    out = co_await s.demote_key("k");
  }(srv, demote_st));
  rig.sim.schedule(0.5, [&] {
    ASSERT_TRUE(srv.is_up());
    srv.crash();
  });
  rig.sim.run();
  EXPECT_FALSE(demote_st.ok());
  // The node is gone: nothing resident, nothing charged, either tier.
  EXPECT_EQ(srv.all_keys().size(), 0u);
  EXPECT_EQ(srv.tier_bytes(), 0u);
  EXPECT_EQ(rig.mem.used(), 0u);
}

/// Drive a random trace of puts/gets/demotes/promotes/dels (with an
/// optional crash) and digest every outcome; two runs at the same seed
/// must produce identical digests.
std::string run_interleaving(std::uint64_t seed, bool with_crash) {
  Rig rig;
  Server srv(rig.sim, rig.fabric, 1, 1 << 30, "t", rig.hooks());
  srv.attach_tier(make_tier(), 0.5);
  std::string digest;
  // Three concurrent actors, each with a forked stream, racing demotes
  // and promotes against regular traffic.
  Rng root(seed);
  for (int actor = 0; actor < 3; ++actor) {
    rig.sim.spawn([](Rig& r, Server& s, Rng rng, int id,
                     std::string& out) -> sim::Task<> {
      for (int step = 0; step < 40; ++step) {
        co_await r.sim.delay(rng.exponential(0.01));
        const auto key = "k" + std::to_string(rng.uniform_u64(0, 9));
        Errc code;
        const char* op;
        switch (rng.uniform_u64(0, 4)) {
          case 0:
            op = "put";
            code = (co_await s.put(0, "t", key,
                                   Blob::ghost(rng.uniform_u64(100, 5000))))
                       .code();
            break;
          case 1:
            op = "get";
            code = (co_await s.get(0, "t", key)).code();
            break;
          case 2:
            op = "demote";
            code = (co_await s.demote_key(key)).code();
            break;
          case 3:
            op = "promote";
            code = (co_await s.promote_key(key)).code();
            break;
          default:
            op = "del";
            code = (co_await s.del(0, "t", key)).code();
            break;
        }
        out += std::to_string(id) + op + key + ":" +
               std::to_string(static_cast<int>(code)) + "@" +
               std::to_string(r.sim.now()) + ";";
      }
    }(rig, srv, root.fork(), actor, digest));
  }
  if (with_crash) {
    rig.sim.schedule(0.2, [&] { srv.crash(); });
  }
  rig.sim.run();
  if (srv.is_up()) {
    expect_no_dual_residency(srv);
    expect_conservation(rig, srv);
  } else {
    EXPECT_EQ(rig.mem.used(), 0u);
    EXPECT_EQ(srv.tier_bytes(), 0u);
  }
  digest += "|bytes=" + std::to_string(srv.store().used()) + "+" +
            std::to_string(srv.tier_bytes()) +
            "|t=" + std::to_string(rig.sim.now());
  return digest;
}

TEST(Tiering, RandomInterleavingsReplayBitIdentically) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    EXPECT_EQ(run_interleaving(seed, false), run_interleaving(seed, false));
    EXPECT_EQ(run_interleaving(seed, true), run_interleaving(seed, true));
  }
  // Distinct seeds explore distinct schedules (sanity that the digest
  // actually captures behaviour).
  EXPECT_NE(run_interleaving(1, false), run_interleaving(2, false));
}

}  // namespace
}  // namespace memfss::kvstore

namespace memfss::exp {
namespace {

ScenarioParams tiered_params() {
  ScenarioParams p;
  p.total_nodes = 6;
  p.own_nodes = 2;
  p.own_fraction = 0.1;
  // Small node pools so the demote pass reaches its relief floor before
  // the hot key set runs dry (the partial-prefix property below).
  p.node_spec.memory = 256 * units::MiB;
  p.victim_memory_cap = 256 * units::MiB;
  p.own_store_capacity = 4 * units::GiB;
  p.stripe_size = 4 * units::MiB;
  p.victim_tier_capacity = 1 * units::GiB;
  return p;
}

TEST(TieringFs, PressureDemotesColdestPrefixNotEverything) {
  Scenario sc(tiered_params());
  std::size_t files_failed = 0;
  sc.sim().spawn([](Scenario& s, std::size_t& failed) -> sim::Task<> {
    auto c = s.fs().client(s.own_nodes().front());
    (void)co_await c.mkdirs("/d");
    for (int f = 0; f < 48; ++f) {
      const auto st =
          co_await c.write_file("/d/f" + std::to_string(f), 8 * units::MiB);
      if (!st.ok()) ++failed;
    }
    // Re-read a prefix so those stripes are hot everywhere.
    for (int f = 0; f < 4; ++f)
      (void)co_await c.read_file("/d/f" + std::to_string(f));
  }(sc, files_failed));
  sc.sim().run();
  ASSERT_EQ(files_failed, 0u);

  sc.fs().arm_victim_monitors(0.85);
  const NodeId victim = sc.victim_nodes().front();
  auto& srv = sc.fs().server(victim);
  ASSERT_TRUE(srv.tiered());
  const auto order = srv.demotion_order();
  ASSERT_GT(order.size(), 1u);

  auto& pool = sc.cluster().node(victim).memory();
  const auto want = static_cast<Bytes>(0.95 * pool.capacity());
  ASSERT_TRUE(pool.used() < want && pool.try_alloc(want - pool.used()));
  sc.sim().run();  // drains the demote pass

  // The pass stopped at the relief floor: some keys went cold, the
  // hottest stayed hot, and the cold set is a prefix of the pre-pass
  // coldest-first order.
  const auto* tier = srv.tier();
  std::size_t cold = 0;
  for (const auto& k : order)
    if (tier->peek(k) != nullptr) ++cold;
  EXPECT_GT(cold, 0u);
  EXPECT_LT(cold, order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(tier->peek(order[i]) != nullptr, i < cold)
        << "demotion victims not a coldest prefix at " << order[i];
  }
  // Relief actually happened without the fabric: node pool dropped below
  // the threshold and no evacuation ran.
  EXPECT_LT(pool.used(), static_cast<Bytes>(0.85 * pool.capacity()));
  EXPECT_TRUE(sc.fs().has_server(victim));
}

// Regression: concurrent evacuations draining a whole victim class.
// `remaining` in FileSystem::evacuate_victim is a live view of the class
// membership; an evacuation that is mid-migration when the last *other*
// member leaves must fall back to the own class for its remaining keys
// instead of HRW-selecting from an empty candidate set (formerly an
// assert under sanitizers, silent UB in release).
TEST(TieringFs, ConcurrentEvacuationsFallBackToOwnClass) {
  ScenarioParams p = tiered_params();
  p.victim_tier_capacity = 0;  // untiered: reclaim == evacuation
  Scenario sc(p);
  std::size_t files_failed = 0;
  sc.sim().spawn([](Scenario& s, std::size_t& failed) -> sim::Task<> {
    auto c = s.fs().client(s.own_nodes().front());
    (void)co_await c.mkdirs("/d");
    for (int f = 0; f < 24; ++f) {
      const auto st =
          co_await c.write_file("/d/f" + std::to_string(f), 8 * units::MiB);
      if (!st.ok()) ++failed;
    }
  }(sc, files_failed));
  sc.sim().run();
  ASSERT_EQ(files_failed, 0u);

  // Stagger the evacuations by 1 ms so the first is still migrating
  // (each stripe takes ~10 ms over the victim NIC) when the rest leave
  // the class out from under it.
  const auto victims = sc.victim_nodes();
  ASSERT_GT(victims.size(), 1u);
  std::vector<Status> sts(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    sc.sim().spawn(
        [](Scenario& s, NodeId v, double at, Status& out) -> sim::Task<> {
          if (at > 0) co_await s.sim().delay(at);
          out = co_await s.fs().evacuate_victim(v);
        }(sc, victims[i], static_cast<double>(i) * 0.001, sts[i]));
  }
  sc.sim().run();
  for (std::size_t i = 0; i < sts.size(); ++i)
    EXPECT_TRUE(sts[i].ok()) << "victim " << victims[i] << ": "
                             << sts[i].error().to_string();

  // Every file survived the scramble and reads back intact.
  std::size_t read_failed = 0;
  sc.sim().spawn([](Scenario& s, std::size_t& failed) -> sim::Task<> {
    auto c = s.fs().client(s.own_nodes().front());
    for (int f = 0; f < 24; ++f) {
      const auto st = co_await c.read_file("/d/f" + std::to_string(f));
      if (!st.ok()) ++failed;
    }
  }(sc, read_failed));
  sc.sim().run();
  EXPECT_EQ(read_failed, 0u);
}

// Scaled-down run of the tier-pressure experiment (the full-size version
// lives in bench/tier_pressure and runs via scripts/check.sh --tier):
// both arms complete, the tiered arm actually demotes, and rows replay
// byte-identically at a fixed seed.
TierPressureOptions small_pressure_opts(Bytes tier_capacity) {
  TierPressureOptions opt;
  opt.seed = 1;
  opt.scenario.total_nodes = 6;
  opt.scenario.own_nodes = 2;
  opt.scenario.own_fraction = 0.1;
  opt.scenario.victim_memory_cap = 256 * units::MiB;
  opt.scenario.victim_net_cap = 400e6;
  opt.scenario.own_store_capacity = 2 * units::GiB;
  opt.scenario.stripe_size = 4 * units::MiB;
  opt.scenario.victim_tier_capacity = tier_capacity;
  opt.files = 10;
  opt.file_bytes = 8 * units::MiB;
  return opt;
}

TEST(TierPressure, BothArmsRunAndTieredArmDemotes) {
  const auto baseline = run_tier_pressure(small_pressure_opts(0));
  EXPECT_TRUE(baseline.ok);
  EXPECT_EQ(baseline.arm, "baseline");
  EXPECT_GT(baseline.pressure_events, 0u);
  EXPECT_EQ(baseline.demotions, 0u);

  const auto tiered = run_tier_pressure(small_pressure_opts(1 * units::GiB));
  EXPECT_TRUE(tiered.ok);
  EXPECT_EQ(tiered.arm, "tiered");
  EXPECT_GT(tiered.demotions, 0u);
  EXPECT_GT(tiered.cold_bytes, 0u);
  // Demotion at device bandwidth beats evacuation over the capped fabric.
  EXPECT_LT(tiered.reclaim.p99, baseline.reclaim.p99);

  // Schema sanity: header arity matches row arity.
  const auto header = tier_pressure_csv_header();
  const auto row = tier_pressure_csv_row(tiered);
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(row.begin(), row.end(), ','));
}

TEST(TierPressure, RowsReplayByteIdentically) {
  const auto a = run_tier_pressure(small_pressure_opts(1 * units::GiB));
  const auto b = run_tier_pressure(small_pressure_opts(1 * units::GiB));
  EXPECT_EQ(tier_pressure_csv_row(a), tier_pressure_csv_row(b));
}

// Pinned rows: the tier-pressure arms and a tiered fault-recovery run
// with tenant pressure, compared bit-exactly. Together they cover the
// victim-monitor threshold, the tenant fill target, the demote headroom,
// the hot-prefix share and the pressure stagger; a change to any of those
// constants (or to the reclaim paths they feed) moves a value here.
TEST(TierPressure, SeedOneRowsArePinned) {
  // The third row gives victims a 256 MiB node pool and 40 files, so a
  // demote pass stops partway, at threshold - headroom.
  TierPressureOptions partial = small_pressure_opts(1 * units::GiB);
  partial.scenario.node_spec.memory = 256 * units::MiB;
  partial.files = 40;
  struct Pin {
    TierPressureOptions opt;
    std::size_t pressure_events;
    std::uint64_t demotions;
    Bytes cold_bytes;
    std::uint64_t reclaim_count;
    double reclaim_p50, reclaim_p99;
    SimTime runtime;
  };
  const Pin pins[] = {
      {small_pressure_opts(0), 4, 0, 0, 4, 0.096470068278757898,
       0.10545930666666747, 1.1540411146666667},
      {small_pressure_opts(1 * units::GiB), 4, 18, 75498624, 4,
       0.031637280000000045, 0.031637280000000045, 1.1540411146666667},
      {partial, 4, 40, 167774720, 4, 0.052728800000000353,
       0.052728800000000353, 1.6577146826666715},
  };
  for (const Pin& pin : pins) {
    const auto row = run_tier_pressure(pin.opt);
    SCOPED_TRACE(row.arm);
    EXPECT_TRUE(row.ok);
    EXPECT_EQ(row.pressure_events, pin.pressure_events);
    EXPECT_EQ(row.demotions, pin.demotions);
    EXPECT_EQ(row.cold_bytes, pin.cold_bytes);
    EXPECT_EQ(row.reclaim.count, pin.reclaim_count);
    EXPECT_EQ(row.reclaim.p50, pin.reclaim_p50);
    EXPECT_EQ(row.reclaim.p99, pin.reclaim_p99);
    EXPECT_EQ(row.runtime, pin.runtime);
  }
}

// evict_rate > 0 arms the victim monitors inside run_fault_recovery and
// fills victim pools to the pressure target; with a cold tier attached
// the monitors demote down to threshold - headroom before escalating.
TEST(TierPressure, FaultRecoveryEvictionRowIsPinned) {
  FaultRecoveryOptions opt;
  opt.scenario.total_nodes = 8;
  opt.scenario.own_nodes = 2;
  opt.scenario.victim_memory_cap = 2 * units::GiB;
  opt.scenario.victim_tier_capacity = 4 * units::GiB;
  opt.montage_tiles = 24;
  opt.evict_rate = 2.0;
  const auto row = run_fault_recovery(opt);
  EXPECT_TRUE(row.ok);
  EXPECT_EQ(row.runtime, 104.10252962805136);
  EXPECT_EQ(row.clean_runtime, 104.10061158978883);
  EXPECT_EQ(row.failures_handled, 0u);
  EXPECT_EQ(row.tier_demotions, 37u);
  EXPECT_EQ(row.tier_promotions, 2u);
}

}  // namespace
}  // namespace memfss::exp
