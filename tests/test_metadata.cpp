#include "fs/metadata.hpp"

#include <gtest/gtest.h>
#include "co_test.hpp"

#include "common/str.hpp"

namespace memfss::fs {
namespace {

struct Rig {
  sim::Simulator sim;
  cluster::Cluster cl{sim, 4};
  MetadataService meta{cl, {0, 1}};
};

TEST(Metadata, ShardingIsModuloOverOwnNodes) {
  Rig rig;
  bool saw0 = false, saw1 = false;
  for (int i = 0; i < 64; ++i) {
    const NodeId s = rig.meta.shard_for(strformat("/p%d", i));
    EXPECT_TRUE(s == 0 || s == 1);
    saw0 |= s == 0;
    saw1 |= s == 1;
    // Deterministic.
    EXPECT_EQ(s, rig.meta.shard_for(strformat("/p%d", i)));
  }
  EXPECT_TRUE(saw0 && saw1);
}

TEST(Metadata, OperationsChargeLatency) {
  Rig rig;
  SimTime done = -1;
  rig.sim.spawn([](Rig& r, SimTime& d) -> sim::Task<> {
    co_await r.meta.mkdirs(3, "/a/b");
    d = r.sim.now();
  }(rig, done));
  rig.sim.run();
  // At least one request+response round trip through the fabric.
  EXPECT_GT(done, 0.0);
  EXPECT_EQ(rig.meta.operation_count(), 1u);
}

TEST(Metadata, FullLifecycleThroughService) {
  Rig rig;
  rig.sim.spawn([](Rig& r) -> sim::Task<> {
    CO_ASSERT_TRUE((co_await r.meta.mkdirs(2, "/data")).ok());
    FileAttr attr;
    attr.stripe_size = 1024;
    auto ino = co_await r.meta.create(2, "/data/f", attr);
    CO_ASSERT_TRUE(ino.ok());
    CO_ASSERT_TRUE((co_await r.meta.set_size(2, ino.value(), 4096)).ok());
    auto st = co_await r.meta.stat(2, "/data/f");
    CO_ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().stripe_count, 4u);
    auto listing = co_await r.meta.readdir(2, "/data");
    CO_ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing.value().size(), 1u);
    CO_ASSERT_TRUE((co_await r.meta.rename(2, "/data/f", "/data/g")).ok());
    auto gone = co_await r.meta.stat(2, "/data/f");
    EXPECT_EQ(gone.code(), Errc::not_found);
    auto removed = co_await r.meta.unlink(2, "/data/g");
    CO_ASSERT_TRUE(removed.ok());
    EXPECT_EQ(removed.value().inode, ino.value());
  }(rig));
  rig.sim.run();
  EXPECT_GE(rig.meta.operation_count(), 7u);
}

TEST(Metadata, FailsOverToNextShardWhenPrimaryIsCut) {
  Rig rig;
  // Find a path whose primary shard is node 1, then cut client<->1: the
  // operation must succeed via shard 0 and count one failover.
  std::string path;
  for (int i = 0; i < 64 && path.empty(); ++i) {
    auto p = strformat("/p%d", i);
    if (rig.meta.shard_for(p) == 1) path = p;
  }
  ASSERT_FALSE(path.empty());
  rig.cl.fabric().cut_link(3, 1);
  bool finished = false;
  rig.sim.spawn([](Rig& r, std::string p, bool& done) -> sim::Task<> {
    CO_ASSERT_TRUE((co_await r.meta.mkdirs(3, p)).ok());
    done = true;
  }(rig, path, finished));
  rig.sim.run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(rig.meta.failover_count(), 1u);

  // After set_own_nodes the shards follow ModuloPolicy over the new set:
  // rank 0 is the primary, and a cut primary fails over to rank 1 (the
  // only node whose CPU the round trip then charges).
  Rig grown;
  const std::vector<NodeId> own = {0, 1, 2};
  grown.meta.set_own_nodes(own);
  const ModuloPolicy modulo(own);
  for (int i = 0; i < 64; ++i) {
    const auto p = strformat("/p%d", i);
    EXPECT_EQ(grown.meta.shard_for(p), modulo.place(p, 1)[0]) << p;
  }
  const auto ranks = modulo.place(path, own.size());
  ASSERT_EQ(ranks.size(), 3u);
  grown.cl.fabric().cut_link(3, ranks[0]);
  bool grown_finished = false;
  grown.sim.spawn([](Rig& r, std::string p, bool& done) -> sim::Task<> {
    CO_ASSERT_TRUE((co_await r.meta.mkdirs(3, p)).ok());
    done = true;
  }(grown, path, grown_finished));
  grown.sim.run();
  ASSERT_TRUE(grown_finished);
  EXPECT_EQ(grown.meta.failover_count(), 1u);
  EXPECT_EQ(grown.cl.node(ranks[0]).cpu().peak_utilization(), 0.0);
  EXPECT_GT(grown.cl.node(ranks[1]).cpu().peak_utilization(), 0.0);
  EXPECT_EQ(grown.cl.node(ranks[2]).cpu().peak_utilization(), 0.0);
}

TEST(Metadata, TotalPartitionFailsFastWithUnreachable) {
  Rig rig;
  rig.cl.fabric().isolate(3);  // client can reach neither shard
  Status st;
  bool finished = false;
  rig.sim.spawn([](Rig& r, Status& out, bool& done) -> sim::Task<> {
    out = co_await r.meta.mkdirs(3, "/a");
    done = true;
  }(rig, st, finished));
  rig.sim.run();
  ASSERT_TRUE(finished);  // fails fast, never wedges on a frozen flow
  EXPECT_EQ(st.code(), Errc::unreachable);
  EXPECT_EQ(rig.sim.now(), 0.0);  // zero simulated cost
  // A one-way cut is treated like a dead session too: reply link cut.
  rig.cl.fabric().heal_node(3);
  rig.cl.fabric().cut_link(0, 3, /*oneway=*/true);
  rig.cl.fabric().cut_link(1, 3, /*oneway=*/true);
  bool finished2 = false;
  rig.sim.spawn([](Rig& r, Status& out, bool& done) -> sim::Task<> {
    out = co_await r.meta.mkdirs(3, "/b");
    done = true;
  }(rig, st, finished2));
  rig.sim.run();
  ASSERT_TRUE(finished2);
  EXPECT_EQ(st.code(), Errc::unreachable);
}

TEST(Metadata, ResetClearsNamespace) {
  Rig rig;
  rig.sim.spawn([](Rig& r) -> sim::Task<> {
    FileAttr attr;
    attr.stripe_size = 1;
    co_await r.meta.create(0, "/f", attr);
  }(rig));
  rig.sim.run();
  EXPECT_EQ(rig.meta.ns().file_count(), 1u);
  rig.meta.reset();
  EXPECT_EQ(rig.meta.ns().file_count(), 0u);
}

}  // namespace
}  // namespace memfss::fs
