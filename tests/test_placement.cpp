#include "fs/placement.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/str.hpp"
#include "hash/weight_solver.hpp"

namespace memfss::fs {
namespace {

std::vector<NodeId> iota_nodes(std::size_t n, NodeId base) {
  std::vector<NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = base + NodeId(i);
  return v;
}

TEST(ClassMembership, Basics) {
  ClassMembership m;
  EXPECT_FALSE(m.has_class(0));
  m.set_members(0, {1, 2, 3});
  EXPECT_TRUE(m.has_class(0));
  m.add_member(0, 4);
  m.add_member(0, 4);  // idempotent
  EXPECT_EQ(m.members(0).size(), 4u);
  m.remove_member(0, 2);
  EXPECT_EQ(m.members(0), (std::vector<NodeId>{1, 3, 4}));
  m.remove_member(9, 1);  // unknown class: no-op
  m.set_members(1, {10});
  EXPECT_EQ(m.all_members().size(), 4u);
}

TEST(ClassHrwPolicy, TracksLiveMembership) {
  ClassMembership members;
  members.set_members(0, iota_nodes(4, 0));
  const auto w = hash::two_class_weights(0.5);
  members.set_members(1, iota_nodes(8, 100));
  PlacementEpoch epoch{1, {{0, w.own}, {1, w.victim}}};
  ClassHrwPolicy policy(epoch, members);

  // Find a key placed on a victim node, then remove that node: the key
  // must move to another node of the SAME class (minimal disruption).
  for (int k = 0; k < 200; ++k) {
    const std::string key = strformat("key-%d", k);
    const auto before = policy.place(key, 1);
    ASSERT_EQ(before.size(), 1u);
    if (before[0] < 100) continue;  // want a victim-class key
    members.remove_member(1, before[0]);
    const auto after = policy.place(key, 1);
    EXPECT_NE(after[0], before[0]);
    EXPECT_GE(after[0], 100u);  // stayed in the victim class
    members.add_member(1, before[0]);
    break;
  }
}

TEST(ClassHrwPolicy, EpochsResolveIndependently) {
  ClassMembership members;
  members.set_members(0, iota_nodes(4, 0));
  members.set_members(1, iota_nodes(8, 100));
  PlacementEpoch own_only{0, {{0, 0.0}}};
  const auto w = hash::two_class_weights(0.25);
  PlacementEpoch both{1, {{0, w.own}, {1, w.victim}}};

  ClassHrwPolicy p0(own_only, members);
  ClassHrwPolicy p1(both, members);
  int victim_hits_p0 = 0, victim_hits_p1 = 0;
  for (int k = 0; k < 2000; ++k) {
    const std::string key = strformat("e-%d", k);
    if (p0.place(key, 1)[0] >= 100) ++victim_hits_p0;
    if (p1.place(key, 1)[0] >= 100) ++victim_hits_p1;
  }
  EXPECT_EQ(victim_hits_p0, 0);             // epoch 0: own only
  EXPECT_NEAR(victim_hits_p1, 1500, 120);   // epoch 1: ~75% to victims
}

TEST(ClassHrwPolicy, ProbeOrderStartsAtPrimaryAndCoversClass) {
  ClassMembership members;
  members.set_members(0, iota_nodes(8, 0));
  PlacementEpoch epoch{0, {{0, 0.0}}};
  ClassHrwPolicy policy(epoch, members);
  for (int k = 0; k < 50; ++k) {
    const std::string key = strformat("p-%d", k);
    const auto order = policy.probe_order(key);
    EXPECT_EQ(order.size(), 8u);
    EXPECT_EQ(order[0], policy.place(key, 1)[0]);
    EXPECT_EQ(std::set<NodeId>(order.begin(), order.end()).size(), 8u);
  }
}

TEST(ClassHrwPolicy, DescribeMentionsWeights) {
  ClassMembership members;
  members.set_members(0, {1});
  PlacementEpoch epoch{3, {{0, 0.25}}};
  ClassHrwPolicy policy(epoch, members);
  const auto d = policy.describe();
  EXPECT_NE(d.find("epoch=3"), std::string::npos);
  EXPECT_NE(d.find("0.2500"), std::string::npos);
}

TEST(StripeLayout, ErasureShardsWrapAroundTheProbeOrder) {
  ClassMembership members;
  members.set_members(0, iota_nodes(4, 0));
  const ClassHrwPolicy policy(PlacementEpoch{0, {{0, 1.0}}}, members);
  FileAttr attr;
  attr.redundancy = RedundancyMode::erasure;
  attr.ec_k = 4;
  attr.ec_m = 2;
  const std::uint64_t d = Namespace::stripe_key_digest(5, 2);
  const auto order = policy.probe_order(d);
  const auto homes = stripe_homes(policy, attr, "i5:2", d);
  ASSERT_EQ(homes.size(), 6u);  // k + m shards on a 4-node class
  for (std::size_t j = 0; j < homes.size(); ++j) {
    EXPECT_EQ(homes[j].node, order[j % 4]) << j;
    EXPECT_EQ(homes[j].key, "i5:2.s" + std::to_string(j));
  }
  EXPECT_EQ(replica_count(attr), 1u);
}

TEST(StripeLayout, ReplicasSitOnTheTopRanksUnderTheStripeKey) {
  ClassMembership members;
  members.set_members(0, iota_nodes(4, 0));
  const ClassHrwPolicy policy(PlacementEpoch{0, {{0, 1.0}}}, members);
  FileAttr attr;
  attr.redundancy = RedundancyMode::replicated;
  attr.copies = 3;
  const std::uint64_t d = Namespace::stripe_key_digest(5, 2);
  const auto homes = stripe_homes(policy, attr, "i5:2", d);
  const auto top = policy.place(d, 3);
  ASSERT_EQ(homes.size(), 3u);
  for (std::size_t j = 0; j < homes.size(); ++j) {
    EXPECT_EQ(homes[j].node, top[j]);
    EXPECT_EQ(homes[j].key, "i5:2");
  }
  attr.redundancy = RedundancyMode::none;  // one copy, copies ignored
  EXPECT_EQ(replica_count(attr), 1u);
  EXPECT_EQ(home_nodes(policy, attr, d), policy.place(d, 1));
}

TEST(UniformHrwPolicy, SpreadsAcrossAllNodes) {
  UniformHrwPolicy policy(iota_nodes(10, 0));
  std::map<NodeId, int> counts;
  for (int k = 0; k < 10000; ++k)
    ++counts[policy.place(strformat("u-%d", k), 1)[0]];
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [n, c] : counts) EXPECT_NEAR(c, 1000, 200);
}

TEST(ConsistentHashPolicy, ReplicasDistinct) {
  ConsistentHashPolicy policy(iota_nodes(6, 0));
  for (int k = 0; k < 100; ++k) {
    const auto reps = policy.place(strformat("c-%d", k), 3);
    EXPECT_EQ(std::set<NodeId>(reps.begin(), reps.end()).size(), 3u);
  }
}

TEST(ModuloPolicy, DeterministicSpread) {
  ModuloPolicy policy(iota_nodes(5, 0));
  std::map<NodeId, int> counts;
  for (int k = 0; k < 5000; ++k)
    ++counts[policy.place(strformat("m-%d", k), 1)[0]];
  EXPECT_EQ(counts.size(), 5u);
  for (const auto& [n, c] : counts) EXPECT_NEAR(c, 1000, 200);
  // Successive copies go to successive nodes.
  const auto two = policy.place("key", 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ((two[0] + 1) % 5, two[1] % 5);
}

}  // namespace
}  // namespace memfss::fs
