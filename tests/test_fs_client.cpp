// End-to-end filesystem tests: striping, weighted placement, epochs,
// replication, erasure coding, lazy relocation, evacuation, and the
// scavenging security model -- the paper's core mechanisms, exercised
// through the public Client API on a small simulated cluster.
#include <gtest/gtest.h>

#include "cluster/fault.hpp"
#include "co_test.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "fs/client.hpp"
#include "fs/filesystem.hpp"

namespace memfss::fs {
namespace {

std::vector<cluster::ScavengeOffer> make_offers(std::vector<NodeId> nodes,
                                                Bytes cap = units::GiB) {
  std::vector<cluster::ScavengeOffer> out;
  for (NodeId n : nodes) out.push_back({n, cap, 500e6, "tenant"});
  return out;
}

struct Rig {
  sim::Simulator sim;
  cluster::Cluster cl;
  FileSystem fs;

  explicit Rig(FileSystemConfig cfg = base_config(), std::size_t nodes = 12)
      : cl(sim, nodes), fs(cl, std::move(cfg)) {}

  static FileSystemConfig base_config() {
    FileSystemConfig cfg;
    cfg.own_nodes = {0, 1, 2, 3};
    cfg.own_store_capacity = 4 * units::GiB;
    cfg.stripe_size = 1 * units::MiB;
    return cfg;
  }

  void add_victims(double alpha, Bytes cap = units::GiB) {
    auto st = fs.add_victim_class(1, make_offers({4, 5, 6, 7, 8, 9, 10, 11},
                                                 cap),
                                  alpha);
    ASSERT_TRUE(st.ok()) << st.error().to_string();
  }

  /// Run a coroutine to completion on the rig's simulator.
  template <typename F>
  void run(F&& body) {
    bool finished = false;
    sim.spawn([](Rig& r, F body_fn, bool& done) -> sim::Task<> {
      co_await body_fn(r);
      done = true;
    }(*this, std::forward<F>(body), finished));
    sim.run();
    ASSERT_TRUE(finished) << "test coroutine did not finish";
  }
};

TEST(FsClient, GhostWriteReadRoundtrip) {
  Rig rig;
  rig.add_victims(0.25);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.mkdirs("/data")).ok());
    CO_ASSERT_TRUE((co_await c.write_file("/data/f", 32 * units::MiB)).ok());
    auto st = co_await c.stat("/data/f");
    CO_ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().attr.size, 32 * units::MiB);
    EXPECT_EQ(st.value().stripe_count, 32u);
    auto bytes = co_await c.read_file("/data/f");
    CO_ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), 32 * units::MiB);
  });
  EXPECT_EQ(rig.fs.counters().stripes_written, 32u);
  EXPECT_EQ(rig.fs.counters().stripes_read, 32u);
}

TEST(FsClient, AlphaControlsDistribution) {
  for (double alpha : {0.25, 0.75}) {
    Rig rig;
    rig.add_victims(alpha);
    rig.run([](Rig& r) -> sim::Task<> {
      Client c = r.fs.client(0);
      for (int i = 0; i < 16; ++i) {
        CO_ASSERT_TRUE(
            (co_await c.write_file(strformat("/f%d", i), 16 * units::MiB))
                .ok());
      }
    });
    Bytes own = 0, victim = 0;
    for (const auto& [node, bytes] : rig.fs.distribution()) {
      (node < 4 ? own : victim) += bytes;
    }
    const double total = double(own) + double(victim);
    EXPECT_NEAR(own / total, alpha, 0.12) << "alpha=" << alpha;
  }
}

TEST(FsClient, MaterializedRoundtripPreservesBytes) {
  Rig rig;
  rig.add_victims(0.5);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(1);
    Rng rng(77);
    std::vector<std::uint8_t> payload(3 * units::MiB + 12345);
    for (auto& b : payload) b = std::uint8_t(rng.next_u64());
    CO_ASSERT_TRUE((co_await c.write_file_bytes("/blob", payload)).ok());
    auto back = co_await c.read_file_bytes("/blob");
    CO_ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), payload);
  });
}

TEST(FsClient, ReadMissingFileFails) {
  Rig rig;
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    auto res = co_await c.read_file("/nope");
    EXPECT_EQ(res.code(), Errc::not_found);
  });
}

TEST(FsClient, ReadFileBytesOnGhostFails) {
  Rig rig;
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/g", units::MiB)).ok());
    auto res = co_await c.read_file_bytes("/g");
    EXPECT_EQ(res.code(), Errc::invalid_argument);
  });
}

TEST(HolderSearch, HomesThenTheRestOfTheProbeOrder) {
  Rig rig;
  const std::vector<NodeId> order{2, 0, 3, 1, 40};  // 40 has no server
  const std::vector<NodeId> homes{3};
  HolderSearch search(rig.fs, homes, order);
  std::vector<NodeId> seen;
  std::vector<HolderSearch::From> from;
  for (NodeId n; (n = search.next()) != kInvalidNode;) {
    seen.push_back(n);
    from.push_back(search.from());
  }
  EXPECT_EQ(seen, (std::vector<NodeId>{3, 2, 0, 1}));
  EXPECT_EQ(from.front(), HolderSearch::From::home);
  EXPECT_EQ(from.back(), HolderSearch::From::probe_order);
  EXPECT_EQ(search.next(), kInvalidNode);  // stays exhausted
}

// Every redundancy mode: unlink must find each copy or shard where the
// write put it, so nothing is left behind.
TEST(FsClient, UnlinkRemovesAllStripes) {
  struct Mode {
    const char* name;
    RedundancyMode redundancy;
    std::uint8_t copies, ec_k, ec_m;
  };
  for (const Mode& mode : {Mode{"none", RedundancyMode::none, 1, 0, 0},
                           Mode{"replicated x2", RedundancyMode::replicated,
                                2, 0, 0},
                           Mode{"RS(4,2)", RedundancyMode::erasure, 1, 4,
                                2}}) {
    SCOPED_TRACE(mode.name);
    auto cfg = Rig::base_config();
    cfg.redundancy = mode.redundancy;
    cfg.copies = mode.copies;
    cfg.ec_k = mode.ec_k;
    cfg.ec_m = mode.ec_m;
    Rig rig(std::move(cfg));
    rig.add_victims(0.25);
    rig.run([](Rig& r) -> sim::Task<> {
      Client c = r.fs.client(0);
      CO_ASSERT_TRUE((co_await c.write_file("/f", 24 * units::MiB)).ok());
      EXPECT_GT(r.fs.total_bytes(), 24 * units::MiB);  // + key overhead
      CO_ASSERT_TRUE((co_await c.unlink("/f")).ok());
      EXPECT_EQ(r.fs.total_bytes(), 0u);
      auto st = co_await c.stat("/f");
      EXPECT_EQ(st.code(), Errc::not_found);
    });
  }
}

// Regression: unlink during a class revocation must leave no byte behind.
// Three paths used to keep one: the unlink swept draining nodes for the
// base stripe key only, missing erasure shard keys; a drain that met a
// key of the unlinked file parked it on the own class; and the targeted
// repair that ends the revocation could rebuild a shard of a file
// unlinked while the repair read its siblings. Unlinking at once exercises
// the first two, unlinking 0.05 s in the third.
TEST(FsClient, UnlinkDuringRevocationDeletesShardsOnDrainingNodes) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::erasure;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  for (const SimTime after : {0.0, 0.05}) {
    SCOPED_TRACE(after);
    Rig rig(cfg);
    rig.add_victims(0.25);
    rig.run([after](Rig& r) -> sim::Task<> {
      Client c = r.fs.client(0);
      CO_ASSERT_TRUE((co_await c.write_file("/f", 64 * units::MiB)).ok());
      r.sim.spawn([](FileSystem& fs) -> sim::Task<> {
        (void)co_await fs.revoke_victim_class(1, 30.0);
      }(r.fs));
      co_await r.sim.delay(after);
      CO_ASSERT_TRUE((co_await c.unlink("/f")).ok());
    });
    EXPECT_TRUE(rig.fs.draining_nodes().empty());
    EXPECT_EQ(rig.fs.total_bytes(), 0u);
  }
}

TEST(FsClient, EpochRecordedAtCreationKeepsOldFilesResolvable) {
  Rig rig;
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    // Written before any victim class exists: all stripes on own nodes.
    CO_ASSERT_TRUE((co_await c.write_file("/old", 16 * units::MiB)).ok());
    co_return;
  });
  Bytes victim_before = 0;
  for (NodeId v = 4; v < 12; ++v) victim_before += rig.fs.bytes_on(v);
  EXPECT_EQ(victim_before, 0u);

  rig.add_victims(0.25);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    // Old file still fully readable (epoch 0 routes to own nodes).
    auto bytes = co_await c.read_file("/old");
    CO_ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), 16 * units::MiB);
    EXPECT_EQ(r.fs.counters().read_retries, 0u);
    // New file spreads onto victims (epoch 1).
    CO_ASSERT_TRUE((co_await c.write_file("/new", 64 * units::MiB)).ok());
  });
  Bytes victim_after = 0;
  for (NodeId v = 4; v < 12; ++v) victim_after += rig.fs.bytes_on(v);
  EXPECT_GT(victim_after, 0u);
}

TEST(FsClient, ReplicationSurvivesPrimaryLoss) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 2;
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/r", 8 * units::MiB)).ok());
    // Simulate a crash of one own node's store: wipe it silently.
    r.fs.server(2).wipe();
    auto bytes = co_await c.read_file("/r");
    CO_ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), 8 * units::MiB);
  });
}

TEST(FsClient, ReplicationStoresCopiesOnDistinctNodes) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 3;
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/r3", 4 * units::MiB)).ok());
    co_return;
  });
  // 4 MiB x 3 copies stored (plus per-key overhead).
  EXPECT_GE(rig.fs.total_bytes(), 12 * units::MiB);
}

TEST(FsClient, ErasureMaterializedRoundtrip) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::erasure;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    Rng rng(5);
    std::vector<std::uint8_t> payload(2 * units::MiB + 999);
    for (auto& b : payload) b = std::uint8_t(rng.next_u64());
    CO_ASSERT_TRUE((co_await c.write_file_bytes("/ec", payload)).ok());
    auto back = co_await c.read_file_bytes("/ec");
    CO_ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), payload);
  });
}

TEST(FsClient, ErasureReconstructsAfterNodeLoss) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::erasure;
  cfg.ec_k = 3;
  cfg.ec_m = 2;
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    Rng rng(6);
    std::vector<std::uint8_t> payload(1 * units::MiB);
    for (auto& b : payload) b = std::uint8_t(rng.next_u64());
    CO_ASSERT_TRUE((co_await c.write_file_bytes("/ec2", payload)).ok());
    r.fs.server(1).wipe();  // lose whatever shards node 1 held
    auto back = co_await c.read_file_bytes("/ec2");
    CO_ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), payload);
  });
  EXPECT_GT(rig.fs.counters().reconstructions, 0u);
}

TEST(FsClient, LazyRelocationAfterMembershipGrowth) {
  Rig rig;
  rig.fs.add_victim_class(1, make_offers({4, 5, 6, 7}), 0.25);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/grow", 64 * units::MiB)).ok());
    // New victims join the class: some stripes' HRW primary moves.
    CO_ASSERT_TRUE(
        r.fs.add_victim_nodes(1, make_offers({8, 9, 10, 11})).ok());
    auto bytes = co_await c.read_file("/grow");
    CO_ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), 64 * units::MiB);
    // Give the background migrations time to drain.
    co_await r.sim.delay(10.0);
    // Second read must hit the new primaries directly.
    const auto relocs = r.fs.counters().lazy_relocations;
    EXPECT_GT(relocs, 0u);
    auto again = co_await c.read_file("/grow");
    CO_ASSERT_TRUE(again.ok());
  });
}

TEST(FsClient, EvacuationMigratesAndPreservesData) {
  Rig rig;
  rig.add_victims(0.25);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/evac", 64 * units::MiB)).ok());
    const Bytes before = r.fs.bytes_on(5);
    EXPECT_GT(before, 0u);
    auto st = co_await r.fs.evacuate_victim(5);
    CO_ASSERT_OK(st);
    EXPECT_EQ(r.fs.bytes_on(5), 0u);
    EXPECT_TRUE(r.fs.server(5).store().closed());
    EXPECT_FALSE(r.fs.is_draining(5));
    // All data still reachable, with no probing detours.
    auto bytes = co_await c.read_file("/evac");
    CO_ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), 64 * units::MiB);
    EXPECT_EQ(r.fs.counters().read_retries, 0u);
    // New writes avoid the evacuated node.
    CO_ASSERT_TRUE((co_await c.write_file("/after", 32 * units::MiB)).ok());
    EXPECT_EQ(r.fs.bytes_on(5), 0u);
  });
}

TEST(FsClient, EvacuateOwnNodeRejected) {
  Rig rig;
  rig.run([](Rig& r) -> sim::Task<> {
    auto st = co_await r.fs.evacuate_victim(0);
    EXPECT_EQ(st.code(), Errc::invalid_argument);
    auto st2 = co_await r.fs.evacuate_victim(99);
    EXPECT_EQ(st2.code(), Errc::not_found);
  });
}

TEST(FsClient, MonitorTriggersAutomaticEvacuation) {
  Rig rig;
  rig.add_victims(0.0);  // everything lands on victims
  rig.fs.arm_victim_monitors(0.5);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/data", 32 * units::MiB)).ok());
    // The tenant on node 4 suddenly needs memory.
    auto& mem = r.cl.node(4).memory();
    CO_ASSERT_TRUE(mem.try_alloc(Bytes(mem.capacity() * 0.6)));
    co_await r.sim.delay(30.0);  // let the evacuation run
    EXPECT_EQ(r.fs.bytes_on(4), 0u);
    auto bytes = co_await c.read_file("/data");
    CO_ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), 32 * units::MiB);
  });
}

TEST(FsClient, StoreOverflowSurfacesAsError) {
  auto cfg = Rig::base_config();
  cfg.own_store_capacity = 2 * units::MiB;  // 4 nodes x 2 MiB total
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    auto st = co_await c.write_file("/too-big", 64 * units::MiB);
    EXPECT_EQ(st.code(), Errc::out_of_memory);
  });
}

TEST(FsClient, WipeDataResetsEverything) {
  Rig rig;
  rig.add_victims(0.5);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/w", 16 * units::MiB)).ok());
    co_return;
  });
  EXPECT_GT(rig.fs.total_bytes(), 0u);
  rig.fs.wipe_data();
  EXPECT_EQ(rig.fs.total_bytes(), 0u);
  EXPECT_EQ(rig.fs.meta().ns().file_count(), 0u);
  for (NodeId n = 0; n < 12; ++n)
    EXPECT_EQ(rig.cl.node(n).memory().used(), 0u) << "node " << n;
}

TEST(FsClient, VictimClassValidation) {
  Rig rig;
  EXPECT_EQ(rig.fs.add_victim_class(0, make_offers({4}), 0.5).code(),
            Errc::invalid_argument);
  EXPECT_EQ(rig.fs.add_victim_class(1, {}, 0.5).code(),
            Errc::invalid_argument);
  EXPECT_EQ(rig.fs.add_victim_class(1, make_offers({4}), 1.5).code(),
            Errc::invalid_argument);
  ASSERT_TRUE(rig.fs.add_victim_class(1, make_offers({4, 5}), 0.5).ok());
  EXPECT_EQ(rig.fs.add_victim_class(1, make_offers({6}), 0.5).code(),
            Errc::already_exists);
  EXPECT_EQ(rig.fs.add_victim_class(2, make_offers({4}), 0.5).code(),
            Errc::already_exists);  // node 4 already participates
  EXPECT_EQ(rig.fs.add_victim_nodes(3, make_offers({6})).code(),
            Errc::not_found);
  ASSERT_TRUE(rig.fs.add_victim_nodes(1, make_offers({6})).ok());
}

TEST(FsClient, SecondVictimClassViaExplicitEpoch) {
  Rig rig;
  ASSERT_TRUE(rig.fs.add_victim_class(1, make_offers({4, 5, 6, 7}), 0.5).ok());
  ASSERT_TRUE(rig.fs.add_victim_nodes(1, {}).ok());
  // Add a second victim class and an epoch splitting 50/30/20.
  ASSERT_TRUE(
      rig.fs.add_victim_class(2, make_offers({8, 9, 10, 11}), 0.5).ok());
  // add_victim_class(2, ...) produced a two-class epoch {own, 2}; install
  // a three-class epoch explicitly.
  ASSERT_TRUE(rig.fs
                  .add_epoch({{kOwnClass, 0.0},
                              {1, 0.2},
                              {2, 0.4}})
                  .ok());
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    for (int i = 0; i < 12; ++i)
      CO_ASSERT_TRUE(
          (co_await c.write_file(strformat("/m%d", i), 8 * units::MiB)).ok());
    auto bytes = co_await c.read_file("/m3");
    CO_ASSERT_TRUE(bytes.ok());
  });
  // All three groups hold some data under the three-class epoch.
  Bytes own = 0, v1 = 0, v2 = 0;
  for (const auto& [node, bytes] : rig.fs.distribution()) {
    if (node < 4) own += bytes;
    else if (node < 8) v1 += bytes;
    else v2 += bytes;
  }
  EXPECT_GT(own, 0u);
  EXPECT_GT(v1, 0u);
  EXPECT_GT(v2, 0u);
}

TEST(FsClient, EpochValidation) {
  Rig rig;
  EXPECT_EQ(rig.fs.add_epoch({}).code(), Errc::invalid_argument);
  EXPECT_EQ(rig.fs.add_epoch({{7, 0.1}}).code(), Errc::invalid_argument);
}

// --- fault handling ----------------------------------------------------------

std::vector<std::uint8_t> make_payload(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = std::uint8_t(rng.next_u64());
  return out;
}

/// First victim node (id >= 4 in the Rig) currently holding data.
NodeId victim_with_data(FileSystem& fs) {
  for (const auto& [node, bytes] : fs.distribution())
    if (node >= 4 && bytes > 0) return node;
  return kInvalidNode;
}

/// Rank-0 (primary) node of some stripe of `path` that is a victim, so a
/// fault on it is guaranteed to sit in the read path.
sim::Task<NodeId> primary_victim_of(Rig& r, Client& c, std::string path) {
  auto st = co_await c.stat(std::move(path));
  if (!st.ok()) co_return kInvalidNode;
  const auto policy = r.fs.policy_for_epoch(st.value().attr.epoch);
  for (std::size_t i = 0; i < st.value().stripe_count; ++i) {
    const auto nodes =
        policy.place(Namespace::stripe_key(st.value().inode, i), 2);
    if (!nodes.empty() && nodes[0] >= 4) co_return nodes[0];
  }
  co_return kInvalidNode;
}

TEST(FsClient, CrashDuringWriteRetriesAndSucceeds) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 2;
  cfg.rpc_timeout = 0.25;
  Rig rig(std::move(cfg));
  rig.add_victims(0.25);
  cluster::FaultInjector inj(rig.sim, rig.cl);
  rig.fs.attach_fault_injector(inj);

  const auto payload = make_payload(48 * units::MiB, 11);
  // Two victims die while the write is in flight: stripes routed at them
  // fail (connection refused or mid-transfer), retry, and land on the
  // post-failure membership.
  rig.sim.schedule(0.003, [&] { inj.crash_now(5); });
  rig.sim.schedule(0.006, [&] { inj.crash_now(8); });
  rig.run([&](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file_bytes("/big", payload)).ok());
    auto back = co_await c.read_file_bytes("/big");
    CO_ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value() == payload);
  });
  EXPECT_GT(rig.fs.counters().write_retries, 0u);
  EXPECT_EQ(rig.fs.recovery().failures_handled, 2u);
  EXPECT_EQ(inj.stats().crashes, 2u);
}

TEST(FsClient, DegradedReadAfterCrashThenTargetedRepair) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 2;
  cfg.rpc_timeout = 0.25;
  Rig rig(std::move(cfg));
  rig.add_victims(0.25);
  cluster::FaultInjector inj(rig.sim, rig.cl);
  rig.fs.attach_fault_injector(inj);

  const auto payload = make_payload(8 * units::MiB, 12);
  rig.run([&](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file_bytes("/f", payload)).ok());
    const NodeId victim = co_await primary_victim_of(r, c, "/f");
    CO_ASSERT_TRUE(victim != kInvalidNode);
    inj.crash_now(victim);
    // Read immediately: the down node makes some probes fail over to the
    // replica rank -- a degraded read, still byte-correct.
    auto back = co_await c.read_file_bytes("/f");
    CO_ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value() == payload);
    // Let detection + targeted repair run, then redundancy is whole again.
    co_await r.sim.delay(2.0);
    auto again = co_await c.read_file_bytes("/f");
    CO_ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again.value() == payload);
  });
  EXPECT_GT(rig.fs.counters().degraded_reads, 0u);
  EXPECT_EQ(rig.fs.recovery().failures_handled, 1u);
  EXPECT_GT(rig.fs.recovery().stripes_repaired, 0u);
  EXPECT_GT(rig.fs.recovery().bytes_re_replicated, 0u);
  EXPECT_GT(rig.fs.recovery().mean_time_to_repair(), 0.0);
}

TEST(FsClient, StalledNodeTimesOutButIsNotEvicted) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 2;
  cfg.rpc_timeout = 0.1;
  Rig rig(std::move(cfg));
  rig.add_victims(0.25);
  cluster::FaultInjector inj(rig.sim, rig.cl);
  rig.fs.attach_fault_injector(inj);

  const auto payload = make_payload(4 * units::MiB, 13);
  rig.run([&](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file_bytes("/s", payload)).ok());
    const NodeId victim = co_await primary_victim_of(r, c, "/s");
    CO_ASSERT_TRUE(victim != kInvalidNode);
    inj.stall_now(victim, 1.0);
    auto back = co_await c.read_file_bytes("/s");
    CO_ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value() == payload);
    co_await r.sim.delay(2.0);
    // Slow-but-alive: report_suspect's ground-truth check must have kept
    // the node in the membership (no repair, no failure handled).
    EXPECT_TRUE(r.fs.has_server(victim));
    EXPECT_FALSE(r.fs.server(victim).store().closed());
  });
  EXPECT_GT(rig.fs.counters().rpc_timeouts, 0u);
  EXPECT_EQ(rig.fs.recovery().failures_handled, 0u);
}

TEST(FsClient, RevokedClassDrainsAndStaysReadable) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 2;
  cfg.rpc_timeout = 0.25;
  cfg.revocation_grace = 2.0;
  Rig rig(std::move(cfg));
  rig.add_victims(0.25);
  cluster::FaultInjector inj(rig.sim, rig.cl);
  rig.fs.attach_fault_injector(inj);

  const auto payload = make_payload(16 * units::MiB, 14);
  rig.run([&](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file_bytes("/rv", payload)).ok());
    inj.revoke_class_now(1);  // tenant takes all 8 victims back
    co_await r.sim.delay(5.0);
    // Every member is out of service: drained + closed, or killed at the
    // grace deadline. (Server objects stay in the map, like evacuation.)
    for (NodeId v = 4; v < 12; ++v) {
      EXPECT_TRUE(r.fs.server(v).store().closed() ||
                  !r.fs.server(v).is_up())
          << "victim " << v << " still serving";
    }
    auto back = co_await c.read_file_bytes("/rv");
    CO_ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value() == payload);
  });
  EXPECT_EQ(inj.stats().revocations, 1u);
  EXPECT_GE(rig.fs.recovery().failures_handled, 1u);
  // Everything now lives on the 4 own nodes.
  for (const auto& [node, bytes] : rig.fs.distribution()) {
    if (node >= 4) {
      EXPECT_EQ(bytes, 0u) << "node " << node;
    }
  }
}

/// ISSUE acceptance: a run whose FaultPlan crashes a victim node AND
/// revokes the victim class mid-run completes with byte-identical data
/// and nonzero degraded-read / repair metrics.
void acceptance_run(FileSystemConfig cfg) {
  cfg.rpc_timeout = 0.25;
  cfg.revocation_grace = 2.0;
  Rig rig(std::move(cfg));
  rig.add_victims(0.25, 2 * units::GiB);
  cluster::FaultInjector inj(rig.sim, rig.cl);
  rig.fs.attach_fault_injector(inj);

  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint64_t i = 0; i < 4; ++i)
    payloads.push_back(make_payload((4 + i) * units::MiB + 17 * i, 100 + i));

  rig.run([&](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      CO_ASSERT_TRUE(
          (co_await c.write_file_bytes(strformat("/a%zu", i), payloads[i]))
              .ok());
    }
    // Arm the mid-run plan *after* data exists: one victim crash, then
    // the whole class is revoked while reads are in flight.
    const NodeId victim = victim_with_data(r.fs);
    CO_ASSERT_TRUE(victim != kInvalidNode);
    cluster::FaultPlan plan;
    plan.crash(0.05, victim).revoke_class(0.6, 1);
    inj.arm(plan);
    // Read continuously through the fault window.
    for (int round = 0; round < 8; ++round) {
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        auto back = co_await c.read_file_bytes(strformat("/a%zu", i));
        CO_ASSERT_TRUE(back.ok());
        EXPECT_TRUE(back.value() == payloads[i])
            << "file " << i << " round " << round;
      }
      co_await r.sim.delay(0.15);
    }
    co_await r.sim.delay(4.0);  // drain + targeted repair finish
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      auto back = co_await c.read_file_bytes(strformat("/a%zu", i));
      CO_ASSERT_TRUE(back.ok());
      EXPECT_TRUE(back.value() == payloads[i]) << "file " << i << " final";
    }
  });
  EXPECT_EQ(inj.stats().crashes, 1u);
  EXPECT_EQ(inj.stats().revocations, 1u);
  EXPECT_GT(rig.fs.counters().degraded_reads, 0u);
  EXPECT_GE(rig.fs.recovery().failures_handled, 2u);
  EXPECT_GT(rig.fs.recovery().stripes_repaired, 0u);
}

TEST(FsClient, FaultPlanAcceptanceReplicated) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 2;
  acceptance_run(std::move(cfg));
}

TEST(FsClient, FaultPlanAcceptanceErasure) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::erasure;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  acceptance_run(std::move(cfg));
}

}  // namespace
}  // namespace memfss::fs
