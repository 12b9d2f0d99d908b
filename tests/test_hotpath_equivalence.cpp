// Equivalence oracles for the hot-path optimizations (DESIGN.md §9).
//
// 1. Bundled fabric vs. naive water-filling: the fabric aggregates
//    identical flows into bundles and runs progressive filling over
//    bundle/port/group sets. A literal per-flow reference implementation
//    of the same algorithm must produce the same rate for every flow (to
//    1e-9 relative) across randomized scenarios.
// 2. Digest placement vs. string-key placement: the allocation-free
//    StripeRef digest path must select exactly the same nodes as the
//    legacy strformat-ed key for every (inode, stripe, class-set) probed.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "fs/namespace.hpp"
#include "fs/placement.hpp"
#include "hash/hashes.hpp"
#include "hash/hrw.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace memfss {
namespace {

// --- naive per-flow water-filling reference ---------------------------------

struct RefFlow {
  NodeId src, dst;
  double cap;                  // per-flow ceiling (may be inf)
  int group;                   // index into group_limits, -1 for none
};

struct RefNic {
  double up, down;
};

// Literal transcription of the pre-bundling Fabric::recompute() filling
// loop (same epsilons, same freeze conditions), used as the oracle.
std::vector<double> naive_waterfill(const std::vector<RefNic>& nics,
                                    const std::vector<RefFlow>& flows,
                                    const std::vector<double>& group_limits) {
  constexpr double kRateEpsilon = 1e-9;
  const std::size_t n = nics.size();
  std::vector<double> up_res(n), down_res(n);
  std::vector<std::size_t> up_cnt(n, 0), down_cnt(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    up_res[i] = nics[i].up;
    down_res[i] = nics[i].down;
  }
  std::vector<double> grp_res(group_limits);
  std::vector<std::size_t> grp_cnt(group_limits.size(), 0);
  for (const auto& f : flows) {
    ++up_cnt[f.src];
    ++down_cnt[f.dst];
    if (f.group >= 0) ++grp_cnt[static_cast<std::size_t>(f.group)];
  }

  std::vector<double> rate(flows.size(), 0.0);
  std::vector<bool> frozen(flows.size(), false);
  std::size_t unfrozen = flows.size();
  double level = 0.0;
  while (unfrozen > 0) {
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (up_cnt[i] > 0)
        delta = std::min(delta, up_res[i] / static_cast<double>(up_cnt[i]));
      if (down_cnt[i] > 0)
        delta =
            std::min(delta, down_res[i] / static_cast<double>(down_cnt[i]));
    }
    for (std::size_t g = 0; g < grp_res.size(); ++g) {
      if (grp_cnt[g] > 0)
        delta =
            std::min(delta, grp_res[g] / static_cast<double>(grp_cnt[g]));
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (!frozen[i] && std::isfinite(flows[i].cap))
        delta = std::min(delta, flows[i].cap - level);
    }
    if (!std::isfinite(delta)) break;
    delta = std::max(delta, 0.0);
    level += delta;
    for (std::size_t i = 0; i < n; ++i) {
      up_res[i] -= delta * static_cast<double>(up_cnt[i]);
      down_res[i] -= delta * static_cast<double>(down_cnt[i]);
    }
    for (std::size_t g = 0; g < grp_res.size(); ++g)
      grp_res[g] -= delta * static_cast<double>(grp_cnt[g]);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto& f = flows[i];
      if (frozen[i]) continue;
      const bool up_sat = up_res[f.src] <= kRateEpsilon * nics[f.src].up;
      const bool down_sat =
          down_res[f.dst] <= kRateEpsilon * nics[f.dst].down;
      const bool grp_sat =
          f.group >= 0 &&
          grp_res[static_cast<std::size_t>(f.group)] <=
              kRateEpsilon *
                  (group_limits[static_cast<std::size_t>(f.group)] + 1.0);
      const bool cap_sat =
          std::isfinite(f.cap) &&
          level >= f.cap - kRateEpsilon * std::max(1.0, f.cap);
      if (up_sat || down_sat || grp_sat || cap_sat) {
        frozen[i] = true;
        rate[i] = level;
        --unfrozen;
        --up_cnt[f.src];
        --down_cnt[f.dst];
        if (f.group >= 0) --grp_cnt[static_cast<std::size_t>(f.group)];
      }
    }
  }
  for (std::size_t i = 0; i < flows.size(); ++i)
    if (!frozen[i]) rate[i] = level;
  return rate;
}

sim::Task<> hold(net::Fabric& fab, RefFlow f, net::CapGroup* grp) {
  co_await fab.transfer(f.src, f.dst, Bytes{1} << 40, f.cap, grp);
}

// One randomized scenario: build the fabric, let all flows arrive, and
// compare every flow's allocated rate with the naive reference.
void check_scenario(Rng& rng) {
  const std::size_t nodes = 2 + rng.uniform_u64(0, 14);
  const std::size_t n_flows = 1 + rng.uniform_u64(0, 149);
  const std::size_t n_groups = rng.uniform_u64(0, 3);

  std::vector<RefNic> nics(nodes);
  sim::Simulator sim;
  net::NicSpec base;
  base.latency = 0.0;
  net::Fabric fab(sim, nodes, base);
  for (std::size_t i = 0; i < nodes; ++i) {
    net::NicSpec spec;
    spec.latency = 0.0;
    spec.up = 1e8 * static_cast<double>(1 + rng.uniform_u64(0, 29));
    spec.down = 1e8 * static_cast<double>(1 + rng.uniform_u64(0, 29));
    fab.set_nic(static_cast<NodeId>(i), spec);
    nics[i] = {spec.up, spec.down};
  }

  std::vector<double> group_limits;
  std::vector<std::unique_ptr<net::CapGroup>> groups;
  for (std::size_t g = 0; g < n_groups; ++g) {
    const double lim = 1e8 * static_cast<double>(1 + rng.uniform_u64(0, 9));
    group_limits.push_back(lim);
    groups.push_back(std::make_unique<net::CapGroup>(lim));
  }

  std::vector<RefFlow> flows;
  for (std::size_t i = 0; i < n_flows; ++i) {
    RefFlow f;
    f.src = static_cast<NodeId>(rng.uniform_u64(0, nodes - 1));
    do {
      f.dst = static_cast<NodeId>(rng.uniform_u64(0, nodes - 1));
    } while (f.dst == f.src);
    // A third uncapped, the rest with a modest per-flow ceiling; caps are
    // drawn from a tiny set so many flows share a bundle.
    f.cap = rng.uniform_u64(0, 2) == 0
                ? net::Fabric::kUncapped
                : 2e8 * static_cast<double>(1 + rng.uniform_u64(0, 3));
    f.group = n_groups > 0 && rng.uniform_u64(0, 1) == 0
                  ? static_cast<int>(rng.uniform_u64(0, n_groups - 1))
                  : -1;
    flows.push_back(f);
    sim.spawn(
        hold(fab, f, f.group >= 0 ? groups[f.group].get() : nullptr));
  }
  sim.run_until(1e-6);  // arrivals processed, nothing completes
  ASSERT_EQ(fab.active_flows(), n_flows);
  EXPECT_LE(fab.active_bundles(), n_flows);

  const auto expect = naive_waterfill(nics, flows, group_limits);
  const auto snap = fab.flow_snapshot();
  ASSERT_EQ(snap.size(), n_flows);
  for (std::size_t i = 0; i < n_flows; ++i) {
    EXPECT_EQ(snap[i].src, flows[i].src);
    EXPECT_EQ(snap[i].dst, flows[i].dst);
    const double tol = 1e-9 * std::max(1.0, expect[i]);
    EXPECT_NEAR(snap[i].rate, expect[i], tol)
        << "flow " << i << " (" << flows[i].src << "->" << flows[i].dst
        << " cap=" << flows[i].cap << " group=" << flows[i].group << ")";
  }
  sim.run();  // drain: every held coroutine completes (no leaked frames)
}

TEST(FabricEquivalence, RandomizedScenariosMatchNaiveWaterfill) {
  Rng rng(20260805);
  for (int s = 0; s < 40; ++s) {
    SCOPED_TRACE(s);
    check_scenario(rng);
  }
}

TEST(FabricEquivalence, DuplicateFlowsShareBundlesAndSplitEvenly) {
  sim::Simulator sim;
  net::NicSpec spec;
  spec.latency = 0.0;
  spec.up = 10e9;
  spec.down = 1e9;
  net::Fabric fab(sim, 4, spec);
  // 8 identical flows 0->1: one bundle, each gets down/8.
  std::vector<RefFlow> flows(8, RefFlow{0, 1, net::Fabric::kUncapped, -1});
  for (const auto& f : flows) sim.spawn(hold(fab, f, nullptr));
  sim.run_until(1e-6);
  ASSERT_EQ(fab.active_flows(), 8u);
  EXPECT_EQ(fab.active_bundles(), 1u);
  for (const auto& fi : fab.flow_snapshot())
    EXPECT_NEAR(fi.rate, 1e9 / 8.0, 1.0);
  EXPECT_NEAR(fab.node_down_rate(1), 1e9, 8.0);
  sim.run();
}

// --- digest placement equivalence -------------------------------------------

TEST(DigestEquivalence, StripeKeyDigestMatchesStringDigest) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto ino = rng.next_u64();
    const auto idx = static_cast<std::size_t>(rng.uniform_u64(0, 1u << 20));
    EXPECT_EQ(fs::Namespace::stripe_key_digest(ino, idx),
              hash::key_digest(fs::Namespace::stripe_key(ino, idx)))
        << "ino=" << ino << " idx=" << idx;
  }
  // Boundary values of the decimal rendering.
  for (std::uint64_t ino :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{9},
        std::uint64_t{10}, std::uint64_t{99},
        std::numeric_limits<std::uint64_t>::max()}) {
    for (std::size_t idx : {std::size_t{0}, std::size_t{10},
                            std::numeric_limits<std::size_t>::max()}) {
      EXPECT_EQ(fs::Namespace::stripe_key_digest(ino, idx),
                hash::key_digest(fs::Namespace::stripe_key(ino, idx)));
    }
  }
}

TEST(DigestEquivalence, HrwTopMatchesRankPrefix) {
  Rng rng(11);
  std::vector<NodeId> servers;
  for (NodeId n = 0; n < 25; ++n) servers.push_back(n * 3 + 1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t d =
        hash::key_digest(fs::Namespace::stripe_key(rng.next_u64(), i));
    // Partial selection must equal the matching prefix of the full sort.
    const auto full = hash::hrw_rank(d, servers);
    for (std::size_t count : {std::size_t{1}, std::size_t{3},
                              std::size_t{24}, std::size_t{25},
                              std::size_t{40}}) {
      const auto top = hash::hrw_top(d, servers, count);
      ASSERT_EQ(top.size(), std::min(count, servers.size()));
      for (std::size_t r = 0; r < top.size(); ++r)
        EXPECT_EQ(top[r], full[r]) << "count=" << count << " rank=" << r;
    }
  }
}

TEST(DigestEquivalence, PolicyDigestPathSelectsSameNodes) {
  Rng rng(13);
  for (int setup = 0; setup < 6; ++setup) {
    fs::ClassMembership members;
    const std::size_t n_classes = 1 + rng.uniform_u64(0, 2);
    fs::PlacementEpoch epoch;
    epoch.id = static_cast<std::uint32_t>(setup);
    NodeId next = 0;
    for (std::size_t c = 0; c < n_classes; ++c) {
      std::vector<NodeId> nodes;
      const std::size_t sz = 1 + rng.uniform_u64(0, 11);
      for (std::size_t k = 0; k < sz; ++k) nodes.push_back(next++);
      members.set_members(static_cast<std::uint32_t>(c), nodes);
      epoch.weights.push_back(
          {static_cast<std::uint32_t>(c),
           0.25 * static_cast<double>(rng.uniform_u64(0, 3))});
    }
    const fs::ClassHrwPolicy policy(epoch, members);
    for (int i = 0; i < 300; ++i) {
      const fs::InodeId ino = rng.uniform_u64(2, 5000);
      const std::size_t idx = static_cast<std::size_t>(i);
      const std::string key = fs::Namespace::stripe_key(ino, idx);
      const std::uint64_t d = fs::Namespace::stripe_key_digest(ino, idx);
      EXPECT_EQ(policy.place(key, 3), policy.place(d, 3));
      EXPECT_EQ(policy.probe_order(key), policy.probe_order(d));
      EXPECT_EQ(policy.winning_class(key), policy.winning_class(d));
    }
  }
}

}  // namespace
}  // namespace memfss
