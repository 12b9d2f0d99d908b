// run_slowdown_sweep runs its simulations on several threads. These
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
  for (const auto& app : suite) {
    const double clean =
        run_tenant_under_scavenging(app, Workload::none, opt).duration;
    ASSERT_GT(clean, 0.0);
    for (Workload w : workloads)
      expected.push_back(
          run_tenant_under_scavenging(app, w, opt).duration / clean - 1.0);
  }

  // Distinct, mostly nonzero cells: a swapped or dropped job shows.
  ASSERT_GT(*std::max_element(expected.begin(), expected.end()), 0.1);

  for (int pass = 0; pass < 2; ++pass) {
    const auto cells = run_slowdown_sweep(suite, workloads, 0.25, opt);
    ASSERT_EQ(cells.size(), expected.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].tenant, suite[i / workloads.size()].name);
      EXPECT_EQ(cells[i].workload, workloads[i % workloads.size()]);
      EXPECT_EQ(cells[i].alpha, 0.25);
      EXPECT_EQ(cells[i].slowdown, expected[i])
          << "pass " << pass << ", cell " << i;
    }
  }
}

}  // namespace
}  // namespace memfss::exp
