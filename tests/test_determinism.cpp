// Determinism properties: identically-seeded simulations must be
// bit-identical. Every stochastic input flows through seeded Rng and the
// event queue breaks time ties FIFO, so reruns of any experiment are
// exact replays -- the property the seed-sweep benches and this whole
// reproduction rely on.
#include <gtest/gtest.h>

#include "exp/experiments.hpp"
#include "fs/client.hpp"
#include "tenant/suites.hpp"
#include "workflow/engine.hpp"
#include "workflow/generators.hpp"

namespace memfss {
namespace {

exp::ScenarioParams tiny() {
  exp::ScenarioParams p;
  p.total_nodes = 8;
  p.own_nodes = 2;
  p.victim_memory_cap = 2 * units::GiB;
  return p;
}

TEST(Determinism, Fig2RunsAreExactReplays) {
  exp::Fig2Options opt;
  opt.scenario = tiny();
  opt.dd_tasks = 32;
  opt.dd_bytes = 16 * units::MiB;
  const auto a = exp::run_fig2(0.25, opt);
  const auto b = exp::run_fig2(0.25, opt);
  EXPECT_EQ(a.runtime, b.runtime);  // bitwise, not approximate
  EXPECT_EQ(a.own_bytes, b.own_bytes);
  EXPECT_EQ(a.victim_bytes, b.victim_bytes);
  EXPECT_EQ(a.victim.nic(), b.victim.nic());
}

TEST(Determinism, WorkflowEngineReplays) {
  auto run_once = [] {
    sim::Simulator sim;
    cluster::Cluster cl(sim, 6);
    fs::FileSystemConfig cfg;
    cfg.own_nodes = {0, 1, 2};
    cfg.stripe_size = units::MiB;
    fs::FileSystem fs(cl, cfg);
    workflow::Engine engine(cl, fs, {0, 1, 2});
    Rng rng(77);
    workflow::MontageParams p;
    p.tiles = 20;
    p.concat_cpu = 3;
    p.bgmodel_cpu = 4;
    p.imgtbl_cpu = 1;
    p.madd_cpu = 5;
    p.shrink_cpu = 1;
    auto wf = workflow::make_montage(p, rng);
    workflow::Report out;
    sim.spawn([](workflow::Engine& e, workflow::Workflow w,
                 workflow::Report& o) -> sim::Task<> {
      o = co_await e.run(std::move(w));
    }(engine, std::move(wf), out));
    sim.run();
    return out;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_TRUE(a.status.ok());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
}

TEST(Determinism, TenantRunsReplay) {
  exp::SlowdownOptions opt;
  opt.scenario = tiny();
  const auto app = tenant::hpcc_suite()[1];  // STREAM
  const auto a = exp::run_tenant_under_scavenging(app, exp::Workload::dd, opt);
  const auto b = exp::run_tenant_under_scavenging(app, exp::Workload::dd, opt);
  EXPECT_EQ(a.duration, b.duration);
}

TEST(Determinism, FaultyRunsAreExactReplays) {
  // A run under an injected fault schedule must replay exactly too: the
  // plan itself is seed-derived, and every retry/backoff/repair decision
  // flows from the same deterministic inputs.
  exp::FaultRecoveryOptions opt;
  opt.scenario = tiny();
  opt.scenario.with_victims = true;
  opt.montage_tiles = 24;
  opt.crash_rate = 0.5;
  opt.revoke_mid_run = true;
  const auto a = exp::run_fault_recovery(opt);
  const auto b = exp::run_fault_recovery(opt);
  EXPECT_EQ(a.runtime, b.runtime);  // bitwise, not approximate
  EXPECT_EQ(a.clean_runtime, b.clean_runtime);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  EXPECT_EQ(a.rpc_timeouts, b.rpc_timeouts);
  EXPECT_EQ(a.read_retries, b.read_retries);
  EXPECT_EQ(a.write_retries, b.write_retries);
  EXPECT_EQ(a.stripes_repaired, b.stripes_repaired);
  EXPECT_EQ(a.bytes_re_replicated, b.bytes_re_replicated);
  EXPECT_EQ(a.mean_time_to_repair, b.mean_time_to_repair);
  EXPECT_TRUE(a.ok && b.ok);
}

TEST(Determinism, FaultyTraceReplaysEventForEvent) {
  // Stronger than comparing aggregate counters: with tracing on, two
  // replays of a faulty run must record the *same event sequence* --
  // every span and instant, same order, same timestamps, same details.
  // This is the property the golden-trace regression test builds on.
  exp::FaultRecoveryOptions opt;
  opt.scenario = tiny();
  opt.scenario.with_victims = true;
  opt.montage_tiles = 24;
  opt.crash_rate = 0.5;
  opt.revoke_mid_run = true;
  opt.capture_trace = true;
  const auto a = exp::run_fault_recovery(opt);
  const auto b = exp::run_fault_recovery(opt);
  ASSERT_FALSE(a.trace_text.empty());
  EXPECT_EQ(a.trace_text, b.trace_text);  // byte-identical event log
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_csv, b.metrics_csv);
  // The trace actually covers the faulty run: fault instants are there.
  EXPECT_NE(a.trace_text.find("fault.crash"), std::string::npos);
  EXPECT_NE(a.trace_text.find("fault.revoke"), std::string::npos);
}

TEST(Determinism, HedgedReadDecisionsReplay) {
  // Hedged reads key off the observed latency histogram and simulated
  // time only, so two identically-seeded runs must make the same hedge
  // decisions -- same backup arms fired, same winners, and a byte-equal
  // event trace (the property the golden-trace test builds on).
  struct Out {
    std::string trace;
    std::uint64_t hedges = 0, wins = 0;
    SimTime end = 0.0;
  };
  auto run_once = [] {
    sim::Simulator sim;
    cluster::Cluster cl(sim, 6);
    cl.obs().tracer.enable_all(true);
    fs::FileSystemConfig cfg;
    cfg.own_nodes = {0, 1, 2, 3};
    cfg.stripe_size = units::MiB;
    cfg.redundancy = fs::RedundancyMode::replicated;
    cfg.copies = 2;
    fs::FileSystem fs(cl, cfg);
    fs.set_resilience_tuning({/*threshold=*/2, /*cooldown=*/0.5},
                             /*hedge_quantile=*/0.9, /*min_samples=*/8);
    sim.spawn([](fs::FileSystem& f) -> sim::Task<> {
      fs::Client c = f.client(0);
      for (int i = 0; i < 4; ++i)
        (void)co_await c.write_file("/f" + std::to_string(i),
                                    4 * units::MiB);
      for (int i = 0; i < 4; ++i)  // warm the latency histogram
        (void)co_await c.read_file("/f" + std::to_string(i));
      f.server(1).stall_for(60.0);  // force hedges on node-1 primaries
      for (int i = 0; i < 4; ++i)
        (void)co_await c.read_file("/f" + std::to_string(i));
    }(fs));
    sim.run();
    return Out{cl.obs().tracer.text_dump(), fs.counters().hedged_reads,
               fs.counters().hedge_wins, sim.now()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GT(a.hedges, 0u);  // the scenario actually hedged
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.wins, b.wins);
  EXPECT_EQ(a.end, b.end);      // bitwise, not approximate
  EXPECT_EQ(a.trace, b.trace);  // byte-identical event log
}

TEST(Determinism, DifferentSeedsDifferentWorkflows) {
  Rng a(1), b(2);
  const auto wa = exp::make_workload(exp::Workload::blast, a);
  const auto wb = exp::make_workload(exp::Workload::blast, b);
  EXPECT_NE(wa.total_output_bytes(), wb.total_output_bytes());
}

}  // namespace
}  // namespace memfss
