// Tests for active rebalance and redundancy repair (fs/maintenance.cpp).
#include <gtest/gtest.h>

#include "co_test.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "fs/client.hpp"
#include "fs/filesystem.hpp"

namespace memfss::fs {
namespace {

std::vector<cluster::ScavengeOffer> offers(std::vector<NodeId> nodes) {
  std::vector<cluster::ScavengeOffer> out;
  for (NodeId n : nodes) out.push_back({n, units::GiB, 500e6, "t"});
  return out;
}

struct Rig {
  sim::Simulator sim;
  cluster::Cluster cl;
  FileSystem fs;

  explicit Rig(FileSystemConfig cfg = base_config())
      : cl(sim, 12), fs(cl, std::move(cfg)) {}

  static FileSystemConfig base_config() {
    FileSystemConfig cfg;
    cfg.own_nodes = {0, 1, 2, 3};
    cfg.own_store_capacity = 4 * units::GiB;
    cfg.stripe_size = 1 * units::MiB;
    return cfg;
  }

  template <typename F>
  void run(F&& body) {
    bool finished = false;
    sim.spawn([](Rig& r, F fn, bool& done) -> sim::Task<> {
      co_await fn(r);
      done = true;
    }(*this, std::forward<F>(body), finished));
    sim.run();
    ASSERT_TRUE(finished);
  }
};

TEST(Rebalance, MovesOldEpochFilesToVictims) {
  Rig rig;
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    // Written under epoch 0: everything on own nodes.
    CO_ASSERT_TRUE((co_await c.write_file("/old", 64 * units::MiB)).ok());
    CO_ASSERT_TRUE(
        r.fs.add_victim_class(1, offers({4, 5, 6, 7, 8, 9, 10, 11}), 0.25)
            .ok());
    const auto report = co_await r.fs.rebalance_all();
    CO_ASSERT_OK(report.status);
    EXPECT_EQ(report.files_scanned, 1u);
    EXPECT_EQ(report.files_updated, 1u);
    EXPECT_GT(report.stripes_moved, 30u);  // ~75% of 64 stripes
    EXPECT_GT(report.bytes_moved, 30 * units::MiB);
    // Metadata epoch advanced...
    auto st = co_await c.stat("/old");
    CO_ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().attr.epoch, r.fs.current_epoch());
    // ...and reads hit rank-0 directly with no further lazy moves.
    const auto relocs = r.fs.counters().lazy_relocations;
    auto bytes = co_await c.read_file("/old");
    CO_ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), 64 * units::MiB);
    co_await r.sim.delay(5.0);
    EXPECT_EQ(r.fs.counters().lazy_relocations, relocs);
    EXPECT_EQ(r.fs.counters().read_retries, 0u);
  });
  Bytes victim_bytes = 0;
  for (NodeId v = 4; v < 12; ++v) victim_bytes += rig.fs.bytes_on(v);
  EXPECT_GT(victim_bytes, 30 * units::MiB);
}

TEST(Rebalance, CurrentEpochFilesUntouched) {
  Rig rig;
  ASSERT_TRUE(rig.fs.add_victim_class(1, offers({4, 5, 6, 7}), 0.5).ok());
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/new", 16 * units::MiB)).ok());
    const auto report = co_await r.fs.rebalance_all();
    CO_ASSERT_OK(report.status);
    EXPECT_EQ(report.files_scanned, 1u);
    EXPECT_EQ(report.files_updated, 0u);
    EXPECT_EQ(report.stripes_moved, 0u);
  });
}

TEST(Rebalance, ReplicatedFilesKeepAllCopies) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 2;
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/rep", 16 * units::MiB)).ok());
    const Bytes before = r.fs.total_bytes();
    CO_ASSERT_TRUE(
        r.fs.add_victim_class(1, offers({4, 5, 6, 7}), 0.25).ok());
    const auto report = co_await r.fs.rebalance_all();
    CO_ASSERT_OK(report.status);
    // Storage volume unchanged: copies moved, not duplicated or dropped.
    EXPECT_EQ(r.fs.total_bytes(), before);
    auto bytes = co_await c.read_file("/rep");
    CO_ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), 16 * units::MiB);
  });
}

TEST(Rebalance, ErasureFilesFollowTheNewEpoch) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::erasure;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    Rng rng(11);
    std::vector<std::uint8_t> payload(6 * units::MiB + 5);
    for (auto& b : payload) b = std::uint8_t(rng.next_u64());
    // Written under epoch 0: every shard on own nodes.
    CO_ASSERT_TRUE((co_await c.write_file_bytes("/ec", payload)).ok());
    const Bytes before = r.fs.total_bytes();
    CO_ASSERT_TRUE(
        r.fs.add_victim_class(1, offers({4, 5, 6, 7, 8, 9, 10, 11}), 0.25)
            .ok());
    const auto report = co_await r.fs.rebalance_all();
    CO_ASSERT_OK(report.status);
    EXPECT_EQ(report.files_updated, 1u);
    EXPECT_GT(report.stripes_moved, 0u);
    EXPECT_EQ(r.fs.total_bytes(), before);  // moved, not copied

    auto st = co_await c.stat("/ec");
    CO_ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().attr.epoch, r.fs.current_epoch());
    // Shard j of stripe i lives on rank j (mod class size) of the new
    // epoch's probe order.
    const ClassHrwPolicy policy = r.fs.policy_for_epoch(r.fs.current_epoch());
    for (std::size_t i = 0; i < st.value().stripe_count; ++i) {
      const auto order =
          policy.probe_order(Namespace::stripe_key_digest(st.value().inode, i));
      CO_ASSERT_FALSE(order.empty());
      for (std::size_t j = 0; j < 6; ++j) {
        const std::string sk = Namespace::stripe_key(st.value().inode, i) +
                               ".s" + std::to_string(j);
        EXPECT_TRUE(r.fs.server(order[j % order.size()])
                        .resident_size(r.fs.token(), sk)
                        .ok())
            << sk;
      }
    }
    auto back = co_await c.read_file_bytes("/ec");
    CO_ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), payload);
  });
}

TEST(Repair, RestoresMissingReplicas) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 2;
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/f", 16 * units::MiB)).ok());
    const Bytes before = r.fs.total_bytes();
    r.fs.server(1).wipe();  // crash one own node's store
    EXPECT_LT(r.fs.total_bytes(), before);
    const auto report = co_await r.fs.repair_all();
    CO_ASSERT_OK(report.status);
    EXPECT_GT(report.stripes_repaired, 0u);
    EXPECT_EQ(r.fs.total_bytes(), before);  // full redundancy restored
    // A second crash of a *different* node is now survivable again.
    r.fs.server(2).wipe();
    auto bytes = co_await c.read_file("/f");
    CO_ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value(), 16 * units::MiB);
  });
}

TEST(Repair, ReportsUnrecoverableLoss) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::replicated;
  cfg.copies = 2;
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/f", 8 * units::MiB)).ok());
    // Lose every store: nothing left to repair from.
    for (NodeId n = 0; n < 4; ++n) r.fs.server(n).wipe();
    const auto report = co_await r.fs.repair_all();
    EXPECT_EQ(report.status.code(), Errc::corruption);
    EXPECT_EQ(report.stripes_repaired, 0u);
  });
}

TEST(Repair, RebuildsErasureShards) {
  auto cfg = Rig::base_config();
  cfg.redundancy = RedundancyMode::erasure;
  cfg.ec_k = 3;
  cfg.ec_m = 2;
  Rig rig(std::move(cfg));
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    Rng rng(4);
    std::vector<std::uint8_t> payload(2 * units::MiB + 17);
    for (auto& b : payload) b = std::uint8_t(rng.next_u64());
    CO_ASSERT_TRUE((co_await c.write_file_bytes("/ec", payload)).ok());
    const Bytes before = r.fs.total_bytes();
    r.fs.server(2).wipe();
    const auto report = co_await r.fs.repair_all();
    CO_ASSERT_OK(report.status);
    EXPECT_GT(report.stripes_repaired, 0u);
    EXPECT_EQ(r.fs.total_bytes(), before);
    // Two further losses exceed m = 2 only if repair had not happened;
    // after repair one more loss is fine.
    r.fs.server(3).wipe();
    auto back = co_await c.read_file_bytes("/ec");
    CO_ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), payload);
  });
}

TEST(Repair, SkipsUnredundantFiles) {
  Rig rig;
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    CO_ASSERT_TRUE((co_await c.write_file("/plain", 4 * units::MiB)).ok());
    const auto report = co_await r.fs.repair_all();
    CO_ASSERT_OK(report.status);
    EXPECT_EQ(report.files_scanned, 1u);
    EXPECT_EQ(report.stripes_repaired, 0u);
  });
}

TEST(ListFiles, WalksTreeInOrder) {
  Namespace ns;
  FileAttr a;
  a.stripe_size = 1;
  ASSERT_TRUE(ns.mkdirs("/b/sub").ok());
  ASSERT_TRUE(ns.create("/b/sub/y", a).ok());
  ASSERT_TRUE(ns.create("/a", a).ok());
  ASSERT_TRUE(ns.create("/b/x", a).ok());
  const auto files = ns.list_files();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].first, "/a");
  EXPECT_EQ(files[1].first, "/b/sub/y");
  EXPECT_EQ(files[2].first, "/b/x");
}

}  // namespace
}  // namespace memfss::fs
