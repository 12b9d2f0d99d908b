#include "hash/hrw.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/str.hpp"
#include "hash/hashes.hpp"

namespace memfss::hash {
namespace {

std::vector<NodeId> make_nodes(std::size_t n) {
  std::vector<NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<NodeId>(i);
  return v;
}

TEST(Hrw, SelectIsDeterministicAndOrderIndependent) {
  auto nodes = make_nodes(16);
  for (int k = 0; k < 200; ++k) {
    const std::uint64_t key = key_digest(strformat("key-%d", k));
    const NodeId a = hrw_select(key, nodes);
    auto shuffled = nodes;
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, hrw_select(key, shuffled));
  }
}

TEST(Hrw, TopKAreDistinctAndPrefixConsistent) {
  auto nodes = make_nodes(10);
  for (int k = 0; k < 100; ++k) {
    const std::uint64_t key = key_digest(strformat("k%d", k));
    const auto top3 = hrw_top(key, nodes, 3);
    ASSERT_EQ(top3.size(), 3u);
    EXPECT_EQ(std::set<NodeId>(top3.begin(), top3.end()).size(), 3u);
    EXPECT_EQ(top3[0], hrw_select(key, nodes));
    const auto rank = hrw_rank(key, nodes);
    ASSERT_EQ(rank.size(), nodes.size());
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(rank[i], top3[i]);
  }
}

TEST(Hrw, MinimalDisruptionOnRemoval) {
  auto nodes = make_nodes(12);
  std::map<std::uint64_t, NodeId> before;
  for (int k = 0; k < 2000; ++k) {
    const std::uint64_t key = key_digest(strformat("obj-%d", k));
    before[key] = hrw_select(key, nodes);
  }
  const NodeId removed = 5;
  auto fewer = nodes;
  fewer.erase(std::find(fewer.begin(), fewer.end(), removed));
  int moved = 0;
  for (const auto& [key, owner] : before) {
    const NodeId now = hrw_select(key, fewer);
    if (owner == removed) {
      // Keys of the removed node must move to their rank-2 node.
      EXPECT_EQ(now, hrw_rank(key, nodes)[1]);
    } else {
      // Everyone else stays put: that is the whole point of HRW.
      EXPECT_EQ(now, owner);
      continue;
    }
    ++moved;
  }
  // About 1/12 of the keys should have moved.
  EXPECT_NEAR(moved, 2000 / 12, 60);
}

TEST(Hrw, LoadIsRoughlyUniform) {
  auto nodes = make_nodes(8);
  std::map<NodeId, int> counts;
  const int keys = 16000;
  for (int k = 0; k < keys; ++k)
    ++counts[hrw_select(key_digest(strformat("u%d", k)), nodes)];
  for (const auto& [n, c] : counts) {
    EXPECT_NEAR(c, keys / 8, keys / 8 * 0.15) << "node " << n;
  }
}

TEST(Hrw, SingleNodeAlwaysWins) {
  std::vector<NodeId> one{7};
  const std::uint64_t key = key_digest("anything");
  EXPECT_EQ(hrw_select(key, one), 7u);
  EXPECT_EQ(hrw_top(key, one, 3).size(), 1u);
}

TEST(Hrw, TopCountLargerThanNodes) {
  auto nodes = make_nodes(3);
  EXPECT_EQ(hrw_top(key_digest("k"), nodes, 10).size(), 3u);
}

TEST(Hrw, ScoreMatchesSelection) {
  auto nodes = make_nodes(6);
  const std::uint64_t key = key_digest("score-check");
  const NodeId winner = hrw_select(key, nodes);
  for (NodeId n : nodes) {
    EXPECT_LE(hrw_score(n, key), hrw_score(winner, key));
  }
}

}  // namespace
}  // namespace memfss::hash
