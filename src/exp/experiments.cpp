#include "exp/experiments.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

#include "cluster/fault.hpp"
#include "common/log.hpp"
#include "common/str.hpp"
#include "exp/timeseries.hpp"
#include "hash/hashes.hpp"
#include "tenant/runner.hpp"
#include "workflow/engine.hpp"
#include "workflow/generators.hpp"

namespace memfss::exp {

std::string workload_name(Workload w) {
  switch (w) {
    case Workload::none: return "none";
    case Workload::dd: return "dd";
    case Workload::montage: return "Montage";
    case Workload::blast: return "BLAST";
  }
  return "?";
}

workflow::Workflow make_workload(Workload w, Rng& rng) {
  switch (w) {
    case Workload::none:
      return {};
    case Workload::dd:
      // Slowdown-experiment scale: half the Fig. 2 bag per iteration so
      // iterations cycle a few times per tenant run.
      return workflow::make_dd_bag(1024, 128 * units::MiB);
    case Workload::montage: {
      // Sized so one iteration moves ~25 GB with the paper's stage shape
      // (wide short tasks, small files, long serial aggregations).
      workflow::MontageParams p;
      p.tiles = 1536;
      p.proj_bytes_min = 8 * units::MiB;
      p.proj_bytes_max = 16 * units::MiB;
      p.concat_cpu = 15.0;
      p.bgmodel_cpu = 25.0;
      p.imgtbl_cpu = 8.0;
      p.madd_cpu = 35.0;
      p.shrink_cpu = 5.0;
      p.small_requests_per_mib = 4.0;  // many-small-files FUSE chatter
      return workflow::make_montage(p, rng);
    }
    case Workload::blast: {
      // Shorter tasks than the headline BLAST numbers so the chatty I/O
      // overlaps the tenant benchmark window.
      workflow::BlastParams p;
      p.queries = 64;
      p.chunk_bytes_min = 64 * units::MiB;
      p.chunk_bytes_max = 128 * units::MiB;
      p.result_bytes_min = 128 * units::MiB;
      p.result_bytes_max = 256 * units::MiB;
      p.task_cpu_min = 15.0;
      p.task_cpu_max = 60.0;
      p.split_cpu = 10.0;
      p.merge_cpu = 30.0;
      return workflow::make_blast(p, rng);
    }
  }
  return {};
}

// --- Fig. 2 -------------------------------------------------------------------

namespace {

struct RunOut {
  workflow::Report report;
};

sim::Task<> run_workflow_once(workflow::Engine& engine,
                              workflow::Workflow wf, RunOut& out) {
  out.report = co_await engine.run(std::move(wf));
}

sim::Task<> run_workflow_then_stop_probes(
    workflow::Engine& engine, workflow::Workflow wf, RunOut& out,
    TimeSeriesProbe& a, TimeSeriesProbe& b) {
  out.report = co_await engine.run(std::move(wf));
  a.stop();
  b.stop();
}

}  // namespace

Fig2Row run_fig2(double alpha, const Fig2Options& opt) {
  ScenarioParams p = opt.scenario;
  p.own_fraction = alpha;
  Scenario sc(p);
  if (opt.capture_trace) sc.cluster().obs().tracer.enable_all(true);

  UtilizationWindow own_w(sc.cluster(), sc.own_nodes());
  UtilizationWindow vic_w(sc.cluster(), sc.victim_nodes());
  workflow::Engine engine(sc.cluster(), sc.fs(), sc.own_nodes());

  TimeSeriesProbe own_probe(sc.cluster(), sc.own_nodes());
  TimeSeriesProbe vic_probe(sc.cluster(), sc.victim_nodes());

  RunOut out;
  own_w.start();
  vic_w.start();
  auto wf = workflow::make_dd_bag(opt.dd_tasks, opt.dd_bytes);
  if (opt.with_timeseries) {
    own_probe.start();
    vic_probe.start();
    sc.sim().spawn(run_workflow_then_stop_probes(engine, std::move(wf), out,
                                                 own_probe, vic_probe));
  } else {
    sc.sim().spawn(run_workflow_once(engine, std::move(wf), out));
  }
  sc.sim().run();

  Fig2Row row;
  row.alpha = alpha;
  row.own = own_w.finish();
  row.victim = vic_w.finish();
  row.victim_nic_rate = row.victim.nic() * p.node_spec.nic.down;
  row.runtime = out.report.makespan;
  for (NodeId n : sc.own_nodes()) row.own_bytes += sc.fs().bytes_on(n);
  for (NodeId n : sc.victim_nodes()) row.victim_bytes += sc.fs().bytes_on(n);
  if (opt.with_timeseries) {
    row.own_cpu_series = own_probe.sparkline(&GroupUtilization::cpu);
    row.own_nic_series = own_probe.sparkline(&GroupUtilization::nic_up);
    row.victim_cpu_series = vic_probe.sparkline(&GroupUtilization::cpu);
    row.victim_nic_series = vic_probe.sparkline(&GroupUtilization::nic_down);
    row.victim_nic_peak = vic_probe.peak(&GroupUtilization::nic_down);
  }
  auto& obs = sc.cluster().obs();
  row.write_latency = obs.metrics.histogram_summary("fs.write_stripe.latency");
  row.metrics_csv = obs.metrics.snapshot(sc.sim().now()).to_csv();
  if (opt.capture_trace) row.trace_json = obs.tracer.chrome_json();
  if (!out.report.status.ok()) {
    LOG_WARN("exp") << "fig2 alpha=" << alpha << " workflow error: "
                    << out.report.status.error().to_string();
  }
  return row;
}

// --- Fig. 3-5 -----------------------------------------------------------------

namespace {

struct LoopCtl {
  bool stop = false;
  SimTime tenant_duration = 0.0;
  std::size_t workload_failures = 0;
};

sim::Task<> workload_loop(Scenario& sc, Workload w, std::uint64_t seed,
                          LoopCtl& ctl) {
  Rng rng(seed);
  workflow::Engine engine(sc.cluster(), sc.fs(), sc.own_nodes());
  while (!ctl.stop) {
    auto wf = make_workload(w, rng);
    auto rep = co_await engine.run(std::move(wf));
    if (!rep.status.ok()) {
      ++ctl.workload_failures;
      LOG_WARN("exp") << "workload iteration failed: "
                      << rep.status.error().to_string();
    }
    sc.fs().wipe_data();
  }
}

sim::Task<> tenant_once(tenant::TenantRunner& runner, tenant::TenantApp app,
                        LoopCtl& ctl) {
  auto res = co_await runner.run(std::move(app));
  ctl.tenant_duration = res.duration;
  ctl.stop = true;
}

}  // namespace

TenantRun run_tenant_under_scavenging(const tenant::TenantApp& app,
                                      Workload workload,
                                      const SlowdownOptions& opt) {
  ScenarioParams p = opt.scenario;
  if (workload == Workload::none) p.with_victims = false;
  Scenario sc(p);

  tenant::TenantRunner runner(
      sc.cluster(), sc.victim_nodes(),
      workload == Workload::none ? nullptr : &sc.fs());

  LoopCtl ctl;
  if (workload != Workload::none)
    sc.sim().spawn(workload_loop(sc, workload, opt.seed, ctl));
  sc.sim().spawn(tenant_once(runner, app, ctl));
  sc.sim().run();
  return {app.name, ctl.tenant_duration, ctl.workload_failures};
}

std::vector<std::vector<SlowdownCell>> run_slowdown_sweeps(
    const std::vector<SweepSpec>& sweeps, const SlowdownOptions& opt) {
  // Every (sweep, app, run) simulation is independent and builds its own
  // Scenario, so they all share one small thread pool. Per sweep, run 0
  // of each app is its clean baseline, followed by the sweep's workloads.
  // Each job writes only its own slot, so neither the values nor their
  // order depend on scheduling.
  struct Job {
    const tenant::TenantApp* app;
    Workload run;
    SlowdownOptions opt;
  };
  std::vector<Job> jobs;
  for (const auto& sw : sweeps) {
    SlowdownOptions o = opt;
    o.scenario.own_fraction = sw.alpha;
    for (const auto& app : sw.suite) {
      jobs.push_back({&app, Workload::none, o});
      for (Workload w : sw.workloads) jobs.push_back({&app, w, o});
    }
  }
  std::vector<TenantRun> result(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();)
      result[j] = run_tenant_under_scavenging(*jobs[j].app, jobs[j].run,
                                              jobs[j].opt);
  };
  const std::size_t n_threads = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), jobs.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n_threads; ++t) threads.emplace_back(work);
  for (auto& t : threads) t.join();

  std::vector<std::vector<SlowdownCell>> out;
  std::size_t j = 0;
  for (const auto& sw : sweeps) {
    auto& cells = out.emplace_back();
    for (const auto& app : sw.suite) {
      const SimTime clean = result[j++].duration;
      for (Workload w : sw.workloads) {
        const TenantRun& run = result[j++];
        cells.push_back({app.name, w, sw.alpha,
                         clean > 0 ? run.duration / clean - 1.0 : 0.0,
                         run.workload_failures});
      }
    }
  }
  return out;
}

std::vector<SlowdownCell> run_slowdown_sweep(
    const std::vector<tenant::TenantApp>& suite,
    const std::vector<Workload>& workloads, double alpha,
    const SlowdownOptions& opt) {
  return run_slowdown_sweeps({{suite, workloads, alpha}}, opt).front();
}

// --- Table II / Fig. 7 --------------------------------------------------------

namespace {

workflow::Workflow make_table2_montage(const Table2Options& opt) {
  Rng rng(opt.seed);
  workflow::MontageParams p;
  p.tiles = opt.tiles;
  p.proj_bytes_min = opt.proj_bytes_min;
  p.proj_bytes_max = opt.proj_bytes_max;
  p.proj_cpu_min = 4.0;
  p.proj_cpu_max = 16.0;
  p.diff_cpu_min = 1.0;
  p.diff_cpu_max = 4.0;
  p.bg_cpu_min = 2.0;
  p.bg_cpu_max = 5.0;
  p.concat_cpu = 500.0;
  p.bgmodel_cpu = 1000.0;
  p.imgtbl_cpu = 200.0;
  p.madd_cpu = 2000.0;
  p.shrink_cpu = 90.0;
  return workflow::make_montage(p, rng);
}

Table2Row run_montage_on(Scenario& sc, workflow::Workflow wf,
                         std::size_t charged_nodes, std::string label) {
  workflow::Engine engine(sc.cluster(), sc.fs(), sc.own_nodes());
  RunOut out;
  sc.sim().spawn(run_workflow_once(engine, std::move(wf), out));
  sc.sim().run();

  Table2Row row;
  row.label = std::move(label);
  row.nodes = charged_nodes;
  row.runtime = out.report.makespan;
  row.node_hours =
      static_cast<double>(charged_nodes) * out.report.makespan / 3600.0;
  row.feasible = out.report.status.ok();
  if (!row.feasible) {
    LOG_WARN("exp") << row.label << " failed: "
                    << out.report.status.error().to_string();
  }
  return row;
}

}  // namespace

Table2Row run_table2_standalone(std::size_t nodes, const Table2Options& opt) {
  auto wf = make_table2_montage(opt);
  const Bytes footprint = wf.total_output_bytes();

  Table2Row row;
  row.label = strformat("Montage standalone (%zu nodes)", nodes);
  row.nodes = nodes;
  row.data_footprint = footprint;
  // Feasibility: all intermediate data must fit into the own stores
  // (with ~5% headroom for per-stripe bookkeeping).
  const auto capacity = static_cast<double>(nodes) *
                        static_cast<double>(opt.standalone_store_capacity);
  if (static_cast<double>(footprint) > 0.95 * capacity) {
    row.feasible = false;
    return row;  // "Unable to run, data does not fit"
  }

  ScenarioParams p;
  p.total_nodes = nodes;
  p.own_nodes = nodes;
  p.with_victims = false;
  p.own_store_capacity = opt.standalone_store_capacity;
  p.stripe_size = opt.stripe_size;
  Scenario sc(p);
  auto out = run_montage_on(sc, std::move(wf), nodes, row.label);
  out.data_footprint = footprint;
  return out;
}

Table2Row run_table2_scavenging(std::size_t own, const Table2Options& opt) {
  auto wf = make_table2_montage(opt);
  const Bytes footprint = wf.total_output_bytes();
  const std::size_t victims = opt.cluster_nodes - own;

  // The own class can only take what its stores hold; cap alpha there.
  const double own_cap_fraction =
      0.85 * static_cast<double>(own) *
      static_cast<double>(opt.own_store_capacity) /
      static_cast<double>(footprint);
  const double alpha = std::min(opt.own_fraction, own_cap_fraction);

  // Victims offer enough memory for the remainder (plus slack): the
  // secondary-queue offers are sized by the tenant's spare memory.
  const auto victim_cap = static_cast<Bytes>(std::max(
      static_cast<double>(opt.victim_memory_cap),
      1.2 * (1.0 - alpha) * static_cast<double>(footprint) /
          static_cast<double>(victims)));

  ScenarioParams p;
  p.total_nodes = opt.cluster_nodes;
  p.own_nodes = own;
  p.with_victims = true;
  p.own_fraction = alpha;
  p.own_store_capacity = opt.own_store_capacity;
  p.victim_memory_cap = victim_cap;
  p.victim_net_cap = opt.victim_net_cap;
  p.stripe_size = opt.stripe_size;
  Scenario sc(p);
  auto out = run_montage_on(
      sc, std::move(wf), own,
      strformat("Montage scavenging (%zu own + %zu victims)", own, victims));
  out.data_footprint = footprint;
  return out;
}

// --- fault recovery ----------------------------------------------------------

namespace {

workflow::Workflow make_fault_workload(const FaultRecoveryOptions& opt,
                                       Rng& rng) {
  if (opt.workload == Workload::montage) {
    // Montage reads every intermediate back (mProject outputs feed
    // mBackground / mAdd), so degraded reads actually happen; the scale
    // knob keeps the fault bench fast.
    workflow::MontageParams p;
    p.tiles = opt.montage_tiles;
    p.proj_bytes_min = opt.proj_bytes_min;
    p.proj_bytes_max = opt.proj_bytes_max;
    // Same I/O-heavy stage shape as the slowdown-scale montage: short
    // serial aggregations so the run is dominated by the data paths the
    // faults hit, not by CPU.
    p.concat_cpu = 15.0;
    p.bgmodel_cpu = 25.0;
    p.imgtbl_cpu = 8.0;
    p.madd_cpu = 35.0;
    p.shrink_cpu = 5.0;
    return workflow::make_montage(p, rng);
  }
  return make_workload(opt.workload, rng);
}

struct FaultRunOut {
  SimTime runtime = 0.0;
  bool ok = true;
  fs::FsCounters counters;
  fs::RecoveryStats recovery;
  cluster::FaultInjectorStats injected;
  obs::HistogramSummary repair_latency;
  std::uint64_t tier_demotions = 0, tier_promotions = 0, tier_cold_hits = 0;
  std::string metrics_csv;
  std::string trace_json;
  std::string trace_text;
};

FaultRunOut fault_run_once(const FaultRecoveryOptions& opt, bool with_faults) {
  ScenarioParams p = opt.scenario;
  if (p.redundancy == fs::RedundancyMode::none) {
    p.redundancy = fs::RedundancyMode::replicated;
    p.copies = 2;
  }
  Scenario sc(p);
  if (opt.capture_trace) sc.cluster().obs().tracer.enable_all(true);
  sc.fs().set_fault_tuning(opt.rpc_timeout, opt.failure_detect_delay,
                           opt.revocation_grace);
  cluster::FaultInjector inj(sc.sim(), sc.cluster());
  sc.fs().attach_fault_injector(inj);

  if (with_faults && !sc.victim_nodes().empty()) {
    Rng fault_rng(hash::mix64(opt.seed, 0xfa117));
    cluster::FaultPlan::RandomParams rp;
    rp.horizon = opt.fault_horizon;
    rp.crash_rate = opt.crash_rate;
    rp.stall_rate = opt.stall_rate;
    rp.stall_duration = opt.stall_duration;
    auto plan =
        cluster::FaultPlan::random(fault_rng, sc.victim_nodes(), rp);
    if (opt.revoke_mid_run) plan.revoke_class(opt.revoke_at, 1);
    inj.arm(plan);
  }

  if (with_faults && opt.evict_rate > 0 && !sc.victim_nodes().empty()) {
    // Synthetic tenant pressure (the chaos soak's mechanism, scaled to
    // the fault window): allocate a victim's pool past the monitor
    // threshold at Poisson arrivals so the reclaim pipeline -- demotion
    // on tiered victims, evacuation otherwise -- runs under the
    // workflow. Allocations are plain pool accounting; they are not
    // released (the bench measures the faulty run only).
    sc.fs().arm_victim_monitors(kMonitorThreshold);
    for (std::size_t i = 0; i < sc.victim_nodes().size(); ++i) {
      sc.sim().spawn([](Scenario& s, NodeId victim, double horizon,
                        double rate, std::uint64_t seed,
                        std::size_t idx) -> sim::Task<> {
        auto& sim = s.sim();
        auto& pool = s.cluster().node(victim).memory();
        Rng rng(hash::mix64(seed, 0x9e550000u + idx));
        const double mean_gap = horizon / rate;
        double t = rng.exponential(mean_gap);
        while (t < horizon) {
          if (t > sim.now()) co_await sim.delay(t - sim.now());
          const auto over = static_cast<Bytes>(
              kPressureFill * static_cast<double>(pool.capacity()));
          if (pool.used() < over) (void)pool.try_alloc(over - pool.used());
          t += rng.exponential(mean_gap);
        }
      }(sc, sc.victim_nodes()[i], opt.fault_horizon, opt.evict_rate,
        opt.seed, i));
    }
  }

  Rng rng(opt.seed);
  auto wf = make_fault_workload(opt, rng);
  workflow::Engine engine(sc.cluster(), sc.fs(), sc.own_nodes());
  RunOut out;
  sc.sim().spawn(run_workflow_once(engine, std::move(wf), out));
  sc.sim().run();

  FaultRunOut r;
  r.runtime = out.report.makespan;
  r.ok = out.report.status.ok();
  if (!r.ok) {
    LOG_WARN("exp") << "fault-recovery workflow failed: "
                    << out.report.status.error().to_string();
  }
  r.counters = sc.fs().counters();
  r.recovery = sc.fs().recovery();
  r.injected = inj.stats();
  auto& obs = sc.cluster().obs();
  r.repair_latency = obs.metrics.histogram_summary("fs.repair.latency");
  if (p.victim_tier_capacity > 0) {
    // Guarded: create-or-get on an untiered registry would perturb its
    // metrics dump.
    r.tier_demotions = obs.metrics.counter("tier.demotions").value();
    r.tier_promotions = obs.metrics.counter("tier.promotions").value();
    r.tier_cold_hits = obs.metrics.counter("tier.cold_hits").value();
  }
  r.metrics_csv = obs.metrics.snapshot(sc.sim().now()).to_csv();
  if (opt.capture_trace) {
    r.trace_json = obs.tracer.chrome_json();
    r.trace_text = obs.tracer.text_dump();
  }
  return r;
}

}  // namespace

FaultRecoveryRow run_fault_recovery(const FaultRecoveryOptions& opt) {
  const FaultRunOut clean = fault_run_once(opt, /*with_faults=*/false);
  // Auto-scale the fault window to the workload: faults that all land in
  // the first seconds of a long run measure nothing.
  FaultRecoveryOptions eff = opt;
  if (eff.fault_horizon <= 0) eff.fault_horizon = 0.6 * clean.runtime;
  if (eff.revoke_at <= 0) eff.revoke_at = 0.35 * clean.runtime;
  const FaultRunOut faulty = fault_run_once(eff, /*with_faults=*/true);

  FaultRecoveryRow row;
  row.runtime = faulty.runtime;
  row.clean_runtime = clean.runtime;
  row.slowdown =
      clean.runtime > 0 ? faulty.runtime / clean.runtime - 1.0 : 0.0;
  row.crashes = faulty.injected.crashes;
  row.revocations = faulty.injected.revocations;
  row.stalls = faulty.injected.stalls;
  row.degraded_reads = faulty.counters.degraded_reads;
  row.rpc_timeouts = faulty.counters.rpc_timeouts;
  row.read_retries = faulty.counters.read_retries;
  row.write_retries = faulty.counters.write_retries;
  row.failures_handled = faulty.recovery.failures_handled;
  row.stripes_repaired = faulty.recovery.stripes_repaired;
  row.bytes_re_replicated = faulty.recovery.bytes_re_replicated;
  row.mean_time_to_repair = faulty.recovery.mean_time_to_repair();
  row.tier_demotions = faulty.tier_demotions;
  row.tier_promotions = faulty.tier_promotions;
  row.tier_cold_hits = faulty.tier_cold_hits;
  row.repair_latency = faulty.repair_latency;
  row.metrics_csv = faulty.metrics_csv;
  row.trace_json = faulty.trace_json;
  row.trace_text = faulty.trace_text;
  row.ok = faulty.ok && clean.ok;
  return row;
}

}  // namespace memfss::exp
