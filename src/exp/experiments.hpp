// Experiment drivers: one function per paper table/figure.
//
// Each driver builds a fresh Scenario, spawns the MemFSS workload and/or
// the tenant application, runs the simulation to completion and returns
// the rows the paper plots. The bench binaries are thin wrappers that
// sweep parameters and print tables.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "obs/histogram.hpp"
#include "tenant/app.hpp"
#include "workflow/dag.hpp"

namespace memfss::exp {

/// The MemFSS application generating scavenging load (paper §IV-A1).
enum class Workload { none, dd, montage, blast };

std::string workload_name(Workload w);

/// Build one instance of a workload at "slowdown experiment" scale --
/// sized so an iteration finishes in tens of simulated seconds and can be
/// looped for the duration of a tenant benchmark.
workflow::Workflow make_workload(Workload w, Rng& rng);

// --- Fig. 2: scavenging overhead baseline ----------------------------------

struct Fig2Options {
  ScenarioParams scenario{};
  std::size_t dd_tasks = 2048;
  Bytes dd_bytes = 128 * units::MiB;
  /// Record utilization-vs-time sparklines (the actual Fig. 2a-e curves).
  bool with_timeseries = false;
  /// Enable the event tracer for all components and return the Chrome
  /// trace JSON + metrics CSV in the row (chrome://tracing / Perfetto).
  bool capture_trace = false;
};

struct Fig2Row {
  double alpha = 0.0;
  GroupUtilization own;
  GroupUtilization victim;
  Rate victim_nic_rate = 0.0;  ///< average victim NIC bytes/s (hot dir)
  SimTime runtime = 0.0;
  Bytes own_bytes = 0, victim_bytes = 0;  ///< final data distribution
  /// Sparklines (only when with_timeseries): utilization over the run,
  /// scaled to 100%.
  std::string own_cpu_series, own_nic_series;
  std::string victim_cpu_series, victim_nic_series;
  double victim_nic_peak = 0.0;
  /// Per-stripe write latency from the observability registry.
  obs::HistogramSummary write_latency;
  /// Full metrics dump (always) and Chrome trace (capture_trace only).
  std::string metrics_csv;
  std::string trace_json;
};

/// One alpha point of Fig. 2 (a-f).
Fig2Row run_fig2(double alpha, const Fig2Options& opt);

// --- Fig. 3-5: tenant slowdown ----------------------------------------------

struct SlowdownOptions {
  ScenarioParams scenario{};
  std::uint64_t seed = 1;
};

struct TenantRun {
  std::string tenant;
  SimTime duration = 0.0;
  /// Workload iterations that ended in an error. The loop wipes the store
  /// and starts over, so such a workload loads the cluster without ever
  /// completing.
  std::size_t workload_failures = 0;
};

/// Duration of `app` on the victim nodes while MemFSS loops `workload`
/// at the scenario's alpha. Workload `none` (with with_victims = false)
/// gives the clean baseline.
TenantRun run_tenant_under_scavenging(const tenant::TenantApp& app,
                                      Workload workload,
                                      const SlowdownOptions& opt);

struct SlowdownCell {
  std::string tenant;
  Workload workload = Workload::none;
  double alpha = 0.0;
  double slowdown = 0.0;  ///< T_scavenged / T_clean - 1
  std::size_t workload_failures = 0;  ///< of the scavenged run
};

/// One tenant suite at one alpha, under every listed MemFSS workload.
struct SweepSpec {
  std::vector<tenant::TenantApp> suite;
  std::vector<Workload> workloads;
  double alpha = 0.0;
};

/// Full sweeps: every benchmark x every workload of each spec, with one
/// clean baseline per benchmark. All their independent simulations form
/// one job list on one pool of min(hardware_concurrency(), jobs) threads,
/// so no sweep waits for another's tail. Returns one cell list per spec,
/// in (benchmark, workload) order, with the values a serial run gives.
std::vector<std::vector<SlowdownCell>> run_slowdown_sweeps(
    const std::vector<SweepSpec>& sweeps, const SlowdownOptions& opt);

/// run_slowdown_sweeps() for a single spec.
std::vector<SlowdownCell> run_slowdown_sweep(
    const std::vector<tenant::TenantApp>& suite,
    const std::vector<Workload>& workloads, double alpha,
    const SlowdownOptions& opt);

// --- Fault recovery: workflow robustness under crashes + revocations ---------

struct FaultRecoveryOptions {
  /// Redundancy defaults to replicated x2 if the caller leaves `none`
  /// (an unredundant store cannot survive a crash at all).
  ScenarioParams scenario{};
  Workload workload = Workload::montage;
  std::uint64_t seed = 1;
  /// Montage scale (the read-heavy workload that exercises degraded
  /// reads); ignored for dd/blast, which use make_workload() scale.
  std::size_t montage_tiles = 768;
  Bytes proj_bytes_min = 4 * units::MiB;
  Bytes proj_bytes_max = 8 * units::MiB;

  // Fault plan shaping (victims only; own nodes never crash here).
  // horizon/revoke_at <= 0 auto-scale to the clean run's makespan
  // (0.6x / 0.35x), so faults land while the workflow is active.
  SimTime fault_horizon = 0.0;  ///< faults land in [0, horizon)
  double crash_rate = 0.0;      ///< expected crashes per victim node
  double stall_rate = 0.0;      ///< stalls per victim node over horizon
  SimTime stall_duration = 1.0;
  bool revoke_mid_run = false;  ///< tenant takes victim class 1 back
  SimTime revoke_at = 0.0;
  /// Tenant memory-pressure events per victim node over the fault
  /// horizon (0 = none, the default). Each event allocates the victim's
  /// pool past the monitor threshold: untiered victims evacuate, tiered
  /// victims (scenario.victim_tier_capacity > 0) demote coldest-first.
  double evict_rate = 0.0;

  // Client fault tuning (see FileSystemConfig). rpc_timeout is ON here,
  // unlike the global default: fault rigs accept the deadline because the
  // scenario is not driven into deep saturation.
  SimTime rpc_timeout = 0.25;
  SimTime failure_detect_delay = 0.2;
  SimTime revocation_grace = 2.0;

  /// Enable the event tracer on the faulty run and return the Chrome
  /// trace JSON and deterministic text dump in the row.
  bool capture_trace = false;
};

struct FaultRecoveryRow {
  SimTime runtime = 0.0;        ///< faulty-run makespan
  SimTime clean_runtime = 0.0;  ///< same seed, no fault plan
  double slowdown = 0.0;        ///< runtime / clean_runtime - 1
  // What the injector actually did.
  std::size_t crashes = 0, revocations = 0, stalls = 0;
  // Client-side robustness counters.
  std::uint64_t degraded_reads = 0, rpc_timeouts = 0;
  std::uint64_t read_retries = 0, write_retries = 0;
  // Recovery-side metrics.
  std::size_t failures_handled = 0, stripes_repaired = 0;
  Bytes bytes_re_replicated = 0;
  double mean_time_to_repair = 0.0;
  // Tiered arm (scenario.victim_tier_capacity > 0); all zero untiered.
  std::uint64_t tier_demotions = 0, tier_promotions = 0, tier_cold_hits = 0;
  /// Per-stripe repair latency quantiles (faulty run, from the registry's
  /// "fs.repair.latency" histogram).
  obs::HistogramSummary repair_latency;
  /// Faulty-run metrics dump; trace_json/trace_text only with
  /// capture_trace (text_dump() is the deterministic replay format).
  std::string metrics_csv;
  std::string trace_json;
  std::string trace_text;
  bool ok = true;  ///< workflow completed without error
};

/// One faulty run + one clean reference run at the same seed.
FaultRecoveryRow run_fault_recovery(const FaultRecoveryOptions& opt);

// --- Table II / Fig. 7: resource consumption reduction ----------------------

struct Table2Options {
  std::size_t cluster_nodes = 40;
  /// Store budget per own node when co-running with tasks (scavenging
  /// setup: tasks + stores share the node).
  Bytes own_store_capacity = 48 * units::GiB;
  /// Store budget per node in the *standalone* reservation: the whole
  /// machine belongs to MemFS, so only OS + task headroom is reserved.
  Bytes standalone_store_capacity = 56 * units::GiB;
  Bytes victim_memory_cap = 24 * units::GiB;
  Rate victim_net_cap = 500e6;
  Bytes stripe_size = 16 * units::MiB;
  double own_fraction = 0.25;
  std::uint64_t seed = 1;
  /// Montage instance scaled so the data footprint is ~1 TB (paper).
  std::size_t tiles = 6144;
  Bytes proj_bytes_min = 56 * units::MiB;
  Bytes proj_bytes_max = 72 * units::MiB;
};

struct Table2Row {
  std::string label;
  std::size_t nodes = 0;    ///< own nodes (scavenging) or all (standalone)
  bool feasible = true;
  SimTime runtime = 0.0;
  double node_hours = 0.0;
  Bytes data_footprint = 0;
};

/// Standalone run on `nodes` nodes (no victims). Emits an infeasible row
/// when the data cannot fit in memory.
Table2Row run_table2_standalone(std::size_t nodes, const Table2Options& opt);

/// Scavenging run with `own` own nodes + (cluster_nodes - own) victims.
Table2Row run_table2_scavenging(std::size_t own, const Table2Options& opt);

}  // namespace memfss::exp
