// run_slowdown_sweeps runs its simulations on several threads. These
// tests carry the `concurrency` label, so check.sh --tsan runs them under
// ThreadSanitizer, and they check that every cell equals the serial
// computation from direct run_tenant_under_scavenging calls.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/experiments.hpp"

namespace memfss::exp {
namespace {

// The reduced-scale scenario of test_exp.cpp.
ScenarioParams small_scenario() {
  ScenarioParams p;
  p.total_nodes = 10;
  p.own_nodes = 2;
  p.victim_memory_cap = 4 * units::GiB;
  p.stripe_size = 8 * units::MiB;
  return p;
}

tenant::TenantApp toy(std::string name, double cpu_seconds,
                      double net_share, double krequests) {
  tenant::TenantApp app;
  app.name = std::move(name);
  tenant::Phase p;
  p.cpu_core_seconds = cpu_seconds;
  p.sensitive.base_seconds = cpu_seconds / 16.0;
  p.sensitive.to_net_share = net_share;
  p.sensitive.to_krequests = krequests;
  app.phases = {p};
  return app;
}

TEST(SlowdownSweep, ParallelCellsEqualDirectRuns) {
  const std::vector<tenant::TenantApp> suite{
      toy("cpu", 160.0, 0.0, 0.0),
      toy("net", 240.0, 3.0, 0.0),
      toy("chatty", 320.0, 1.0, 5.0),
  };
  const std::vector<Workload> workloads{Workload::dd, Workload::blast};
  SlowdownOptions opt;
  opt.scenario = small_scenario();
  opt.scenario.own_fraction = 0.25;

  std::vector<double> expected;
  std::vector<std::size_t> expected_failures;
  for (const auto& app : suite) {
    const double clean =
        run_tenant_under_scavenging(app, Workload::none, opt).duration;
    ASSERT_GT(clean, 0.0);
    for (Workload w : workloads) {
      const TenantRun run = run_tenant_under_scavenging(app, w, opt);
      expected.push_back(run.duration / clean - 1.0);
      expected_failures.push_back(run.workload_failures);
    }
  }

  // Distinct, mostly nonzero cells: a swapped or dropped job shows.
  ASSERT_GT(*std::max_element(expected.begin(), expected.end()), 0.1);

  const auto check = [&](const std::vector<SlowdownCell>& cells,
                         const char* pass) {
    ASSERT_EQ(cells.size(), expected.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].tenant, suite[i / workloads.size()].name);
      EXPECT_EQ(cells[i].workload, workloads[i % workloads.size()]);
      EXPECT_EQ(cells[i].alpha, 0.25);
      EXPECT_EQ(cells[i].slowdown, expected[i]) << pass << ", cell " << i;
      EXPECT_EQ(cells[i].workload_failures, expected_failures[i])
          << pass << ", cell " << i;
    }
  };
  check(run_slowdown_sweep(suite, workloads, 0.25, opt), "one sweep");

  // Two sweeps on one pool equal two one-sweep calls. The second is a
  // one-app sweep at another alpha, to keep the sanitized run short.
  const std::vector<tenant::TenantApp> one_app{suite[1]};
  const auto both = run_slowdown_sweeps(
      {{suite, workloads, 0.25}, {one_app, workloads, 0.5}}, opt);
  ASSERT_EQ(both.size(), 2u);
  check(both[0], "first of two sweeps");
  const auto alone = run_slowdown_sweep(one_app, workloads, 0.5, opt);
  ASSERT_EQ(both[1].size(), alone.size());
  for (std::size_t i = 0; i < alone.size(); ++i) {
    EXPECT_EQ(both[1][i].tenant, alone[i].tenant);
    EXPECT_EQ(both[1][i].workload, alone[i].workload);
    EXPECT_EQ(both[1][i].alpha, 0.5);
    EXPECT_EQ(both[1][i].slowdown, alone[i].slowdown) << "cell " << i;
    EXPECT_EQ(both[1][i].workload_failures, alone[i].workload_failures);
  }
}

}  // namespace
}  // namespace memfss::exp
