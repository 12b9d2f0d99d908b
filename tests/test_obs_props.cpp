// Property tests for obs::Histogram and MetricsRegistry snapshots, in the
// style of test_fabric_props.cpp: randomized inputs, algebraic invariants.
//
//   - merge is associative and commutative (same layout);
//   - quantile(q) is monotone in q and bounded by [min, max];
//   - splitting a sample stream across histograms and merging conserves
//     count, sum, min, max, and every bucket exactly;
//   - a snapshot is a consistent point-in-time copy: mutating the
//     registry afterwards does not change it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/str.hpp"
#include "obs/metrics.hpp"

namespace memfss::obs {
namespace {

std::vector<double> random_samples(Rng& rng, std::size_t n) {
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Log-uniform over ~10 decades, hitting below-lo and above-top too.
    const double mag = rng.uniform(-9.0, 3.0);
    xs.push_back(rng.uniform(0.1, 1.0) * std::pow(10.0, mag));
  }
  return xs;
}

void expect_same(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  // Sums are accumulated in different orders, so allow FP rounding slack.
  EXPECT_NEAR(a.sum(), b.sum(), 1e-9 * std::max(1.0, std::abs(a.sum())));
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
  ASSERT_EQ(a.buckets().size(), b.buckets().size());
  for (std::size_t i = 0; i < a.buckets().size(); ++i)
    EXPECT_EQ(a.buckets()[i], b.buckets()[i]) << "bucket " << i;
}

class HistogramProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramProps, QuantileMonotoneAndBounded) {
  Rng rng(GetParam());
  Histogram h;
  for (double x : random_samples(rng, 1 + rng.uniform_u64(0, 500))) h.add(x);
  double prev = h.quantile(0.0);
  EXPECT_GE(prev, h.min());
  for (int i = 1; i <= 100; ++i) {
    const double q = static_cast<double>(i) / 100.0;
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_LE(prev, h.max());
  // q=1 lands at the top of max's bucket, clamped to max -- so it equals
  // max up to one bucket of relative error, except when max overflowed
  // the bucketed range (then it reports the range cap, still <= max).
  const double q1 = h.quantile(1.0);
  EXPECT_LE(q1, h.max());
  if (h.max() < h.bucket_hi(h.buckets().size() - 1)) {
    EXPECT_GE(q1, h.max() / h.layout().growth * (1.0 - 1e-12));
  }
}

TEST_P(HistogramProps, SplitMergeConservesEverything) {
  Rng rng(GetParam());
  const auto xs = random_samples(rng, 2 + rng.uniform_u64(0, 400));

  Histogram whole;
  for (double x : xs) whole.add(x);

  // Split the same stream across k histograms, then merge them back.
  const std::size_t k = 2 + rng.uniform_u64(0, 4);
  std::vector<Histogram> parts(k);
  for (double x : xs) parts[rng.uniform_u64(0, k - 1)].add(x);
  Histogram merged;
  for (const auto& p : parts) merged.merge(p);

  expect_same(whole, merged);
  // Quantiles agree too: they are a pure function of the state above.
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0})
    EXPECT_DOUBLE_EQ(whole.quantile(q), merged.quantile(q)) << "q=" << q;
}

TEST_P(HistogramProps, MergeAssociativeAndCommutative) {
  Rng rng(GetParam());
  Histogram a, b, c;
  for (double x : random_samples(rng, rng.uniform_u64(0, 200))) a.add(x);
  for (double x : random_samples(rng, rng.uniform_u64(0, 200))) b.add(x);
  for (double x : random_samples(rng, rng.uniform_u64(0, 200))) c.add(x);

  // (a + b) + c
  Histogram ab_c;
  ab_c.merge(a);
  ab_c.merge(b);
  ab_c.merge(c);
  // a + (b + c)
  Histogram bc;
  bc.merge(b);
  bc.merge(c);
  Histogram a_bc;
  a_bc.merge(a);
  a_bc.merge(bc);
  expect_same(ab_c, a_bc);

  // c + b + a (commutativity)
  Histogram cba;
  cba.merge(c);
  cba.merge(b);
  cba.merge(a);
  expect_same(ab_c, cba);

  // Identity: merging an empty histogram changes nothing.
  Histogram with_empty;
  with_empty.merge(a);
  with_empty.merge(Histogram{});
  expect_same(with_empty, a);
}

TEST_P(HistogramProps, CountEqualsBucketTotal) {
  Rng rng(GetParam());
  Histogram h;
  const auto xs = random_samples(rng, rng.uniform_u64(0, 300));
  for (double x : xs) h.add(x);
  std::uint64_t total = 0;
  for (auto c : h.buckets()) total += c;
  EXPECT_EQ(total, h.count());
  EXPECT_EQ(h.count(), xs.size());
}

TEST_P(HistogramProps, SnapshotIsConsistentPointInTime) {
  Rng rng(GetParam());
  MetricsRegistry reg;
  static const char* const kCounters[] = {"c0", "c1", "c2", "c3"};
  static const char* const kGauges[] = {"g0", "g1", "g2", "g3"};
  static const char* const kHists[] = {"h0", "h1", "h2", "h3"};
  const std::size_t n_ops = 1 + rng.uniform_u64(0, 300);
  for (std::size_t i = 0; i < n_ops; ++i) {
    switch (rng.uniform_u64(0, 2)) {
      case 0: reg.counter(kCounters[rng.uniform_u64(0, 3)]).inc(); break;
      case 1: reg.gauge(kGauges[rng.uniform_u64(0, 3)])
            .set(rng.uniform(0.0, 10.0));
        break;
      default: reg.histogram(kHists[rng.uniform_u64(0, 3)])
            .add(rng.uniform(1e-6, 1.0));
        break;
    }
  }
  const auto snap = reg.snapshot(1.0);
  EXPECT_EQ(snap.rows.size(), reg.size());
  const std::string csv_before = snap.to_csv();

  // Mutate the registry heavily; the snapshot must not move.
  for (int i = 0; i < 100; ++i) {
    reg.counter("c0").inc();
    reg.gauge("g0").set(999.0);
    reg.histogram("h0").add(123.0);
    reg.counter(strformat("new%d", i)).inc();
  }
  EXPECT_EQ(snap.to_csv(), csv_before);

  // A fresh snapshot sees the mutations.
  const auto snap2 = reg.snapshot(2.0);
  EXPECT_GT(snap2.rows.size(), snap.rows.size());
  // Every row of the old snapshot still names a live instrument whose
  // counts only grew (monotonicity of counters/histogram counts).
  for (const auto& r : snap.rows) {
    const MetricRow* now = snap2.find(r.name);
    ASSERT_NE(now, nullptr) << r.name;
    EXPECT_GE(now->count, r.count) << r.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProps,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace memfss::obs
