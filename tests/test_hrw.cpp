#include "hash/hrw.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/str.hpp"

namespace memfss::hash {
namespace {

std::vector<NodeId> make_nodes(std::size_t n) {
  std::vector<NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<NodeId>(i);
  return v;
}

class HrwScoreFnTest : public ::testing::TestWithParam<ScoreFn> {};

TEST_P(HrwScoreFnTest, SelectIsDeterministicAndOrderIndependent) {
  auto nodes = make_nodes(16);
  for (int k = 0; k < 200; ++k) {
    const std::string key = strformat("key-%d", k);
    const NodeId a = hrw_select(key, nodes, GetParam());
    auto shuffled = nodes;
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, hrw_select(key, shuffled, GetParam()));
  }
}

TEST_P(HrwScoreFnTest, TopKAreDistinctAndPrefixConsistent) {
  auto nodes = make_nodes(10);
  for (int k = 0; k < 100; ++k) {
    const std::string key = strformat("k%d", k);
    const auto top3 = hrw_top(key, nodes, 3, GetParam());
    ASSERT_EQ(top3.size(), 3u);
    EXPECT_EQ(std::set<NodeId>(top3.begin(), top3.end()).size(), 3u);
    EXPECT_EQ(top3[0], hrw_select(key, nodes, GetParam()));
    const auto rank = hrw_rank(key, nodes, GetParam());
    ASSERT_EQ(rank.size(), nodes.size());
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(rank[i], top3[i]);
  }
}

TEST_P(HrwScoreFnTest, MinimalDisruptionOnRemoval) {
  auto nodes = make_nodes(12);
  std::map<std::string, NodeId> before;
  for (int k = 0; k < 2000; ++k) {
    const std::string key = strformat("obj-%d", k);
    before[key] = hrw_select(key, nodes, GetParam());
  }
  const NodeId removed = 5;
  auto fewer = nodes;
  fewer.erase(std::find(fewer.begin(), fewer.end(), removed));
  int moved = 0;
  for (const auto& [key, owner] : before) {
    const NodeId now = hrw_select(key, fewer, GetParam());
    if (owner == removed) {
      // Keys of the removed node must move to their rank-2 node.
      EXPECT_EQ(now, hrw_rank(key, nodes, GetParam())[1]);
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

TEST_P(HrwScoreFnTest, LoadIsRoughlyUniform) {
  auto nodes = make_nodes(8);
  std::map<NodeId, int> counts;
  const int keys = 16000;
  for (int k = 0; k < keys; ++k)
    ++counts[hrw_select(strformat("u%d", k), nodes, GetParam())];
  for (const auto& [n, c] : counts) {
    EXPECT_NEAR(c, keys / 8, keys / 8 * 0.15) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(BothScoreFns, HrwScoreFnTest,
                         ::testing::Values(ScoreFn::mix64,
                                           ScoreFn::thaler_ravishankar),
                         [](const auto& info) {
                           return info.param == ScoreFn::mix64
                                      ? "mix64"
                                      : "thaler_ravishankar";
                         });

TEST(Hrw, SingleNodeAlwaysWins) {
  std::vector<NodeId> one{7};
  EXPECT_EQ(hrw_select("anything", one), 7u);
  EXPECT_EQ(hrw_top("anything", one, 3).size(), 1u);
}

TEST(Hrw, TopCountLargerThanNodes) {
  auto nodes = make_nodes(3);
  EXPECT_EQ(hrw_top("k", nodes, 10).size(), 3u);
}

TEST(Hrw, ScoreMatchesSelection) {
  auto nodes = make_nodes(6);
  const std::string key = "score-check";
  const NodeId winner = hrw_select(key, nodes);
  for (NodeId n : nodes) {
    EXPECT_LE(hrw_score(n, key), hrw_score(winner, key));
  }
}

}  // namespace
}  // namespace memfss::hash
