#include "hash/class_hrw.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/str.hpp"
#include "hash/hashes.hpp"
#include "hash/weight_solver.hpp"

namespace memfss::hash {
namespace {

std::vector<NodeId> make_nodes(std::size_t n, NodeId base) {
  std::vector<NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = base + static_cast<NodeId>(i);
  return v;
}

std::vector<NodeClass> paper_classes(double alpha, std::size_t own = 8,
                                     std::size_t victims = 32) {
  const auto w = two_class_weights(alpha);
  return {
      NodeClass{0, w.own, make_nodes(own, 0)},
      NodeClass{1, w.victim, make_nodes(victims, 100)},
  };
}

// The paper's alpha sweep: fraction of keys landing in the own class must
// track the target within sampling noise.
class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, ClassFractionMatchesTarget) {
  const double alpha = GetParam();
  const auto classes = paper_classes(alpha);
  const int keys = 40000;
  int own_hits = 0;
  for (int k = 0; k < keys; ++k) {
    const auto p = place(key_digest(strformat("stripe-%d", k)), classes);
    if (p.class_id == 0) ++own_hits;
  }
  EXPECT_NEAR(own_hits / double(keys), alpha, 0.012) << "alpha=" << alpha;
}

TEST_P(AlphaSweep, NodeLayerBalancedWithinClasses) {
  const double alpha = GetParam();
  if (alpha == 0.0 || alpha == 1.0) return;  // degenerate splits
  const auto classes = paper_classes(alpha);
  std::map<NodeId, int> counts;
  const int keys = 60000;
  for (int k = 0; k < keys; ++k)
    ++counts[place(key_digest(strformat("s-%d", k)), classes).node];
  const double own_total = alpha * keys;
  const double victim_total = (1 - alpha) * keys;
  for (const auto& [node, c] : counts) {
    if (node < 100) {
      EXPECT_NEAR(c, own_total / 8, own_total / 8 * 0.2) << "own " << node;
    } else {
      EXPECT_NEAR(c, victim_total / 32, victim_total / 32 * 0.3)
          << "victim " << node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperAlphas, AlphaSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                         [](const auto& info) {
                           return "alpha" +
                                  std::to_string(int(info.param * 100));
                         });

TEST(ClassHrw, EmptyClassesAreSkipped) {
  std::vector<NodeClass> classes{
      NodeClass{0, 0.0, {}},           // no members
      NodeClass{1, 0.0, {5, 6, 7}},
  };
  for (int k = 0; k < 100; ++k) {
    const auto p = place(key_digest(strformat("k%d", k)), classes);
    EXPECT_EQ(p.class_id, 1u);
  }
}

TEST(ClassHrw, ReplicasStayInWinningClass) {
  const auto classes = paper_classes(0.5);
  for (int k = 0; k < 300; ++k) {
    const std::uint64_t key = key_digest(strformat("r%d", k));
    const auto reps = place_replicas(key, classes, 3);
    ASSERT_EQ(reps.size(), 3u);
    const auto cls = reps[0].class_id;
    for (const auto& r : reps) EXPECT_EQ(r.class_id, cls);
    // Distinct nodes.
    EXPECT_NE(reps[0].node, reps[1].node);
    EXPECT_NE(reps[1].node, reps[2].node);
    EXPECT_NE(reps[0].node, reps[2].node);
  }
}

TEST(ClassHrw, RankInWinningClassStartsWithPrimary) {
  const auto classes = paper_classes(0.25);
  for (int k = 0; k < 200; ++k) {
    const std::uint64_t key = key_digest(strformat("x%d", k));
    const auto rank = rank_in_winning_class(key, classes);
    const auto p = place(key, classes);
    ASSERT_FALSE(rank.empty());
    EXPECT_EQ(rank[0], p.node);
    const std::size_t class_size = p.class_id == 0 ? 8u : 32u;
    EXPECT_EQ(rank.size(), class_size);
  }
}

TEST(ClassHrw, ClassDecisionIndependentOfMembership) {
  // The class layer hashes class ids, not node lists: changing victim
  // membership must not re-shuffle keys between classes (the property
  // that makes intra-class eviction safe).
  auto classes = paper_classes(0.25);
  std::vector<std::uint32_t> before;
  for (int k = 0; k < 500; ++k)
    before.push_back(
        classes[select_class(key_digest(strformat("m%d", k)), classes)]
            .class_id);
  classes[1].nodes.pop_back();
  classes[1].nodes.pop_back();
  for (int k = 0; k < 500; ++k) {
    EXPECT_EQ(
        before[size_t(k)],
        classes[select_class(key_digest(strformat("m%d", k)), classes)]
            .class_id);
  }
}

TEST(ClassHrw, GeneralizesToThreeClasses) {
  // Paper §III-B: "can be generalized to an arbitrary number of classes".
  const auto weights = solve_class_weights({0.5, 0.3, 0.2});
  std::vector<NodeClass> classes{
      NodeClass{0, weights[0], make_nodes(4, 0)},
      NodeClass{1, weights[1], make_nodes(8, 100)},
      NodeClass{2, weights[2], make_nodes(8, 200)},
  };
  std::map<std::uint32_t, int> hits;
  const int keys = 60000;
  for (int k = 0; k < keys; ++k)
    ++hits[place(key_digest(strformat("t%d", k)), classes).class_id];
  EXPECT_NEAR(hits[0] / double(keys), 0.5, 0.02);
  EXPECT_NEAR(hits[1] / double(keys), 0.3, 0.02);
  EXPECT_NEAR(hits[2] / double(keys), 0.2, 0.02);
}

}  // namespace
}  // namespace memfss::hash
