// Chaos soak: randomized concurrent faults over a live write/read
// workload, then heal everything and check invariants.
//
// The driver composes every fault class the cluster layer can inject --
// network partitions (symmetric, one-way, full isolation), node crashes,
// a mid-run revocation of the victim class, and memory-pressure evictions
// driven through the victim monitors -- all drawn from one fixed seed, so
// a soak replays byte-identically. After the horizon it heals every cut,
// releases the synthetic tenant pressure, lets recovery quiesce, and runs
// the invariant checker:
//
//   1. durability   -- every *acked* write is readable and byte-identical
//                      to the deterministic payload derived from its seed;
//   2. accounting   -- per node, the memory pool's usage equals the
//                      store's accounted bytes (plus tracked tenant
//                      allocations): nothing leaked, no stripe counted
//                      twice;
//   3. recovery     -- RecoveryStats balance: every handled failure
//                      (crash / revocation / eviction) completed exactly
//                      one targeted-repair pass.
//
// Violations are collected as human-readable strings; an empty list is
// the pass condition scripts/check.sh --chaos enforces across seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
#include "common/types.hpp"
#include "exp/scenario.hpp"
#include "fs/filesystem.hpp"

namespace memfss::exp {

struct ChaosSoakOptions {
  /// Deployment shape. Redundancy defaults to replicated x2 if left
  /// `none` (an unredundant store cannot survive a crash at all).
  ScenarioParams scenario{};
  std::uint64_t seed = 1;

  // Workload: `writers` client coroutines on own nodes, each writing
  // `files_per_writer` checksummable files at random times across the
  // fault horizon, re-reading earlier files in between.
  std::size_t writers = 4;
  std::size_t files_per_writer = 6;
  Bytes file_bytes_min = 2 * units::MiB;
  Bytes file_bytes_max = 6 * units::MiB;

  // Fault mix. Crashes/stalls target victim nodes; partitions may hit any
  // link, including the writers' own nodes.
  SimTime horizon = 40.0;       ///< faults + writes land in [0, horizon)
  double crash_rate = 0.4;      ///< expected crashes per victim node
  double stall_rate = 0.5;      ///< expected stalls per victim node
  SimTime stall_duration = 0.5;
  double partition_rate = 0.8;  ///< expected partitions per node
  SimTime partition_duration = 2.0;
  double partition_link_fraction = 0.6;
  double partition_oneway_fraction = 0.25;
  bool revoke_mid_run = true;
  SimTime revoke_at = 0.0;      ///< <= 0: auto (0.7 * horizon)
  double evict_rate = 0.4;      ///< tenant pressure events per victim node

  // Client resilience tuning (all exercised by the soak).
  SimTime rpc_timeout = 0.25;
  SimTime failure_detect_delay = 0.2;
  SimTime revocation_grace = 2.0;
  BreakerConfig breaker{3, 0.5};
  double hedge_quantile = 0.95;
  std::uint64_t hedge_min_samples = 32;
};

struct ChaosInvariants {
  std::size_t files_acked = 0;     ///< writes that returned ok
  std::size_t files_verified = 0;  ///< read back byte-identical after heal
  std::size_t write_failures = 0;  ///< writes the faults defeated (allowed)
  std::size_t pressure_events = 0; ///< tenant allocations that landed
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

struct ChaosSoakRow {
  std::uint64_t seed = 0;
  SimTime runtime = 0.0;  ///< full soak makespan incl. settle + verify
  cluster::FaultInjectorStats injected;
  fs::FsCounters counters;
  fs::RecoveryStats recovery;
  std::size_t breaker_opens = 0;
  // Tiered arm (scenario.victim_tier_capacity > 0); all zero untiered.
  std::uint64_t tier_demotions = 0;
  std::uint64_t tier_promotions = 0;
  std::uint64_t tier_cold_hits = 0;
  Bytes tier_cold_bytes = 0;  ///< cold-resident at the end of the soak
  ChaosInvariants invariants;
  bool ok = false;  ///< workload finished and invariants all hold
};

/// Run one soak at `opt.seed`. Deterministic: same options => same row.
ChaosSoakRow run_chaos_soak(const ChaosSoakOptions& opt);

/// CSV row schema shared by bench/chaos_soak and EXPERIMENTS.md.
std::string chaos_csv_header();
std::string chaos_csv_row(const ChaosSoakRow& row);

}  // namespace memfss::exp
