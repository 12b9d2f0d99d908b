#include <gtest/gtest.h>

#include <algorithm>

#include "exp/experiments.hpp"
#include "tenant/suites.hpp"

namespace memfss::exp {
namespace {

// Reduced-scale scenarios: same structure as the paper's 8+32 setup but
// small enough for unit-test latency.
ScenarioParams small_scenario() {
  ScenarioParams p;
  p.total_nodes = 10;
  p.own_nodes = 2;
  p.victim_memory_cap = 4 * units::GiB;
  p.stripe_size = 8 * units::MiB;
  return p;
}

TEST(Scenario, BuildsPaperShape) {
  Scenario sc(small_scenario());
  EXPECT_EQ(sc.own_nodes().size(), 2u);
  EXPECT_EQ(sc.victim_nodes().size(), 8u);
  // Victims carry claimed offers -> servers exist on all 10 nodes.
  for (NodeId n = 0; n < 10; ++n) EXPECT_TRUE(sc.fs().has_server(n));
  // The scavenging epoch is installed.
  EXPECT_EQ(sc.fs().current_epoch(), 1u);
}

TEST(Scenario, WithoutVictimsOnlyOwnServers) {
  auto p = small_scenario();
  p.with_victims = false;
  Scenario sc(p);
  EXPECT_TRUE(sc.fs().has_server(0));
  EXPECT_FALSE(sc.fs().has_server(5));
  EXPECT_EQ(sc.fs().current_epoch(), 0u);
}

TEST(Scenario, ReleaseReportsNodeHours) {
  Scenario sc(small_scenario());
  sc.sim().schedule(3600.0, [] {});
  sc.sim().run();
  EXPECT_NEAR(sc.release_own_reservation(), 2.0, 1e-9);  // 2 nodes x 1 h
}

TEST(Fig2, SmallScaleSweepHasPaperShape) {
  Fig2Options opt;
  opt.scenario = small_scenario();
  opt.dd_tasks = 64;
  opt.dd_bytes = 32 * units::MiB;

  const auto r0 = run_fig2(0.0, opt);
  const auto r25 = run_fig2(0.25, opt);
  const auto r100 = run_fig2(1.0, opt);

  // Data distribution follows alpha.
  EXPECT_EQ(r100.victim_bytes, 0u);
  EXPECT_GT(r0.victim_bytes, 9 * r0.own_bytes / 10);
  const double frac25 =
      double(r25.own_bytes) / double(r25.own_bytes + r25.victim_bytes);
  EXPECT_NEAR(frac25, 0.25, 0.1);

  // All runs complete and report utilization.
  for (const auto& r : {r0, r25, r100}) {
    EXPECT_GT(r.runtime, 0.0);
    EXPECT_GE(r.own.cpu, 0.0);
    EXPECT_LE(r.victim.cpu, 1.0);
  }
  // Victims idle when alpha = 1 (all data on own nodes).
  EXPECT_LT(r100.victim.nic(), 0.01);
  EXPECT_GT(r0.victim.nic(), r25.victim.nic());
}

TEST(Fig2, VictimLoadIsBounded) {
  Fig2Options opt;
  opt.scenario = small_scenario();
  opt.dd_tasks = 64;
  opt.dd_bytes = 32 * units::MiB;
  const auto r = run_fig2(0.25, opt);
  // Paper: victim CPU < 5%, victim NIC < ~16% (container cap).
  EXPECT_LT(r.victim.cpu, 0.05);
  EXPECT_LT(r.victim.nic(),
            opt.scenario.victim_net_cap / opt.scenario.node_spec.nic.down +
                0.02);
}

TEST(Workloads, GeneratorsAreDeterministicPerSeed) {
  Rng a(3), b(3);
  const auto w1 = make_workload(Workload::montage, a);
  const auto w2 = make_workload(Workload::montage, b);
  EXPECT_EQ(w1.total_output_bytes(), w2.total_output_bytes());
  EXPECT_EQ(workload_name(Workload::blast), "BLAST");
  EXPECT_EQ(workload_name(Workload::dd), "dd");
}

TEST(Slowdown, CleanBaselineMatchesStandaloneRun) {
  // A tenant with no scavenging runs at its natural duration.
  tenant::TenantApp app;
  app.name = "toy";
  tenant::Phase p;
  p.cpu_core_seconds = 160.0;
  p.cpu_cores = 16.0;
  app.phases = {p};

  SlowdownOptions opt;
  opt.scenario = small_scenario();
  const auto clean = run_tenant_under_scavenging(app, Workload::none, opt);
  EXPECT_NEAR(clean.duration, 10.0, 0.1);
}

TEST(Slowdown, ScavengingSlowsSensitiveTenant) {
  tenant::TenantApp app;
  app.name = "sensitive";
  tenant::Phase p;
  p.sensitive.base_seconds = 30.0;
  p.sensitive.to_net_share = 3.0;
  p.sensitive.to_krequests = 5.0;
  app.phases = {p};

  SlowdownOptions opt;
  opt.scenario = small_scenario();
  opt.scenario.own_fraction = 0.0;  // maximum victim traffic
  const auto clean = run_tenant_under_scavenging(app, Workload::none, opt);
  const auto loaded = run_tenant_under_scavenging(app, Workload::dd, opt);
  EXPECT_NEAR(clean.duration, 30.0, 0.1);
  EXPECT_GT(loaded.duration, clean.duration * 1.01);
}

TEST(Slowdown, SweepProducesOneCellPerPair) {
  tenant::TenantApp app;
  app.name = "toy";
  tenant::Phase p;
  p.cpu_core_seconds = 80.0;
  app.phases = {p};

  SlowdownOptions opt;
  opt.scenario = small_scenario();
  const auto cells =
      run_slowdown_sweep({app}, {Workload::dd, Workload::montage}, 0.25, opt);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].tenant, "toy");
  EXPECT_EQ(cells[0].workload, Workload::dd);
  EXPECT_EQ(cells[1].workload, Workload::montage);
  for (const auto& c : cells) {
    EXPECT_GT(c.slowdown, -0.05);  // no speedup beyond noise
    EXPECT_LT(c.slowdown, 2.0);
  }
  // The dd bag (1024 x 128 MiB) never fits this scenario's 4 GiB victim
  // cap: its iterations fail, and the cell says so.
  EXPECT_GT(cells[0].workload_failures, 0u);
  // A clean baseline runs no workload at all.
  EXPECT_EQ(run_tenant_under_scavenging(app, Workload::none, opt)
                .workload_failures,
            0u);
}

// Two HiBench/Spark apps at the MEMFSS_FAST shape of Fig. 5 (4 own + 12
// victim nodes, alpha = 50%), clean and under two workloads. The
// durations are pinned to the last bit, so a simulator change that moves
// a Fig. 3-6 cell fails here instead of passing unseen. One simulation
// per test case keeps each case inside the timeout of a sanitized build.
struct PinnedRun {
  const char* app;
  Workload workload;
  SimTime duration;
};

// Names each case in test listings; the default would dump raw bytes,
// pointer included.
void PrintTo(const PinnedRun& pin, std::ostream* os) {
  *os << pin.app << " under " << workload_name(pin.workload);
}

class FastScaleSuiteCellsArePinned
    : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(FastScaleSuiteCellsArePinned, Duration) {
  const PinnedRun& pin = GetParam();
  const auto suite = tenant::hibench_spark_suite();
  const auto app = std::find_if(suite.begin(), suite.end(), [&](auto& a) {
    return a.name == pin.app;
  });
  ASSERT_NE(app, suite.end()) << pin.app;
  SlowdownOptions opt;
  opt.scenario.total_nodes = 16;
  opt.scenario.own_nodes = 4;
  opt.scenario.own_fraction = 0.5;
  EXPECT_EQ(run_tenant_under_scavenging(*app, pin.workload, opt).duration,
            pin.duration);
}

INSTANTIATE_TEST_SUITE_P(
    Slowdown, FastScaleSuiteCellsArePinned,
    ::testing::Values(PinnedRun{"KMeans", Workload::none, 133.50000000000017},
                      PinnedRun{"KMeans", Workload::blast, 158.83814201666127},
                      PinnedRun{"KMeans", Workload::dd, 161.14754929774494},
                      PinnedRun{"TeraSort", Workload::none, 129.99999999999991},
                      PinnedRun{"TeraSort", Workload::blast, 173.97264664375945},
                      PinnedRun{"TeraSort", Workload::dd, 171.58743184713998}),
    [](const auto& info) {
      return std::string(info.param.app) + "_" +
             workload_name(info.param.workload);
    });

TEST(Table2, InfeasibleWhenDataDoesNotFit) {
  Table2Options opt;
  opt.tiles = 256;
  opt.proj_bytes_min = 16 * units::MiB;
  opt.proj_bytes_max = 24 * units::MiB;
  opt.own_store_capacity = 2 * units::GiB;
  opt.standalone_store_capacity = 2 * units::GiB;
  opt.cluster_nodes = 10;
  // footprint ~ 256 * 20 MiB * 2 + mosaic ~ 12.5 GiB > 4 x 2 GiB.
  const auto row = run_table2_standalone(4, opt);
  EXPECT_FALSE(row.feasible);
  EXPECT_EQ(row.runtime, 0.0);
  EXPECT_GT(row.data_footprint, 8ull * units::GiB);
}

TEST(Table2, ScavengingRunsWhereStandaloneCannot) {
  Table2Options opt;
  opt.tiles = 128;
  opt.proj_bytes_min = 8 * units::MiB;
  opt.proj_bytes_max = 12 * units::MiB;
  opt.own_store_capacity = 1 * units::GiB;
  opt.standalone_store_capacity = 1 * units::GiB;
  opt.victim_memory_cap = 2 * units::GiB;
  opt.cluster_nodes = 10;

  const auto standalone = run_table2_standalone(2, opt);
  EXPECT_FALSE(standalone.feasible);

  const auto scavenging = run_table2_scavenging(2, opt);
  EXPECT_TRUE(scavenging.feasible);
  EXPECT_GT(scavenging.runtime, 0.0);
  EXPECT_NEAR(scavenging.node_hours,
              2.0 * scavenging.runtime / 3600.0, 1e-9);
}

TEST(Table2, MoreOwnNodesShortenRuntime) {
  Table2Options opt;
  opt.tiles = 128;
  opt.proj_bytes_min = 4 * units::MiB;
  opt.proj_bytes_max = 8 * units::MiB;
  opt.own_store_capacity = 4 * units::GiB;
  opt.victim_memory_cap = 2 * units::GiB;
  opt.cluster_nodes = 10;

  const auto two = run_table2_scavenging(2, opt);
  const auto four = run_table2_scavenging(4, opt);
  ASSERT_TRUE(two.feasible && four.feasible);
  EXPECT_GT(two.runtime, four.runtime);
  // ...but fewer own nodes consume fewer node-hours.
  EXPECT_LT(two.node_hours, four.node_hours);
}

}  // namespace
}  // namespace memfss::exp
