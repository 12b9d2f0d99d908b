#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace memfss {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 3.0);
}

TEST(TimeWeighted, PiecewiseConstantAverage) {
  TimeWeighted tw;
  tw.set(0.0, 1.0);   // 1.0 for [0, 10)
  tw.set(10.0, 3.0);  // 3.0 for [10, 20)
  EXPECT_DOUBLE_EQ(tw.average(20.0), 2.0);
  EXPECT_DOUBLE_EQ(tw.current(), 3.0);
  EXPECT_DOUBLE_EQ(tw.peak(), 3.0);
}

TEST(TimeWeighted, IntegralWindows) {
  TimeWeighted tw;
  tw.set(0.0, 2.0);
  tw.set(5.0, 4.0);
  const double i5 = tw.integral_until(5.0);
  const double i10 = tw.integral_until(10.0);
  EXPECT_DOUBLE_EQ(i5, 10.0);
  EXPECT_DOUBLE_EQ((i10 - i5) / 5.0, 4.0);  // window average [5, 10)
}

TEST(TimeWeighted, BeforeFirstSampleIsZero) {
  TimeWeighted tw;
  EXPECT_EQ(tw.average(10.0), 0.0);
  tw.set(5.0, 1.0);
  EXPECT_EQ(tw.average(5.0), 0.0);
}

}  // namespace
}  // namespace memfss
