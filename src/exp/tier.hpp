// Tier-pressure experiment (DESIGN.md §16, bench/tier_pressure):
// how long does a tenant wait for its memory back when pressure hits a
// scavenged victim node?
//
// Two arms over the same seed and workload:
//   - baseline:  untiered victims; a pressure event triggers the full
//                evacuation protocol -- every resident key migrates over
//                the (container-capped) fabric before the RAM is free;
//   - tiered:    victims carry a cold tier; a pressure event demotes
//                coldest-first into the node-local tier at device
//                bandwidth, touching the fabric not at all.
//
// The measured quantity is the fs.victim_reclaim.latency histogram: one
// sample per reclaim pass, from the pressure event to the point the
// scavenger has given the memory back. The tiered arm's p99 is the
// headline number (EXPERIMENTS.md records the ratio).
#pragma once

#include <cstdint>
#include <string>

#include "exp/scenario.hpp"
#include "obs/histogram.hpp"

namespace memfss::exp {

struct TierPressureOptions {
  /// Deployment shape. victim_tier_capacity here selects the arm: 0 is
  /// the untiered baseline, > 0 the tiered arm.
  ScenarioParams scenario{};
  std::uint64_t seed = 1;

  /// Stripes written before pressure starts (spread over victim stores by
  /// normal HRW placement).
  std::size_t files = 24;
  Bytes file_bytes = 8 * units::MiB;
};

struct TierPressureRow {
  std::string arm;           ///< "baseline" or "tiered"
  std::uint64_t seed = 0;
  std::size_t pressure_events = 0;
  std::uint64_t demotions = 0;
  std::uint64_t promotions = 0;
  std::uint64_t cold_hits = 0;
  Bytes cold_bytes = 0;      ///< cold-resident when the run settles
  obs::HistogramSummary reclaim;  ///< fs.victim_reclaim.latency
  SimTime runtime = 0.0;
  bool ok = false;           ///< every write landed + >=1 reclaim sample
};

/// Run one arm at `opt.seed`. Deterministic: same options => same row.
TierPressureRow run_tier_pressure(const TierPressureOptions& opt);

/// CSV row schema shared by bench/tier_pressure and EXPERIMENTS.md.
std::string tier_pressure_csv_header();
std::string tier_pressure_csv_row(const TierPressureRow& row);

}  // namespace memfss::exp
