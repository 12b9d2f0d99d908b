#include "exp/tier.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/str.hpp"
#include "fs/client.hpp"

namespace memfss::exp {
namespace {

/// Share of the files re-read after the fill: the touched prefix becomes
/// hot, the rest stays cold -- what makes coldest-first demotion cheaper
/// than evacuating everything.
constexpr double kHotFraction = 0.25;
constexpr SimTime kPressureStagger = 0.25;  ///< between per-node events

struct PressureCtx {
  const TierPressureOptions* opt = nullptr;
  Scenario* sc = nullptr;
  std::size_t writes_failed = 0;
  std::size_t pressure_events = 0;
};

/// Fill phase: `files` ghost files through the normal write path, then
/// re-read the first kHotFraction of them so a deterministic prefix of
/// the data is hot when pressure arrives.
sim::Task<> fill_and_heat(PressureCtx& ctx) {
  fs::Client c = ctx.sc->fs().client(ctx.sc->own_nodes().front());
  (void)co_await c.mkdirs("/tier");
  for (std::size_t f = 0; f < ctx.opt->files; ++f) {
    const Status st = co_await c.write_file(strformat("/tier/f%zu", f),
                                            ctx.opt->file_bytes);
    if (!st.ok()) ++ctx.writes_failed;
  }
  const auto hot = static_cast<std::size_t>(
      std::ceil(kHotFraction * static_cast<double>(ctx.opt->files)));
  for (std::size_t f = 0; f < hot && f < ctx.opt->files; ++f)
    (void)co_await c.read_file(strformat("/tier/f%zu", f));
}

/// Pressure phase: one tenant allocation per victim node, staggered so
/// the reclaim passes do not contend with each other on the fabric (the
/// baseline arm's evacuations would otherwise share links and inflate
/// every sample identically).
sim::Task<> apply_pressure(PressureCtx& ctx) {
  auto& sim = ctx.sc->sim();
  for (NodeId v : ctx.sc->victim_nodes()) {
    auto& pool = ctx.sc->cluster().node(v).memory();
    const auto want_total = static_cast<Bytes>(
        kPressureFill * static_cast<double>(pool.capacity()));
    if (pool.used() < want_total &&
        pool.try_alloc(want_total - pool.used()))
      ++ctx.pressure_events;
    co_await sim.delay(kPressureStagger);
  }
}

}  // namespace

TierPressureRow run_tier_pressure(const TierPressureOptions& opt) {
  Scenario sc(opt.scenario);

  PressureCtx ctx;
  ctx.opt = &opt;
  ctx.sc = &sc;

  // Fill runs to completion before monitors arm: the measurement is the
  // reclaim stall, not write-vs-evacuation interference.
  sc.sim().spawn(fill_and_heat(ctx));
  sc.sim().run();

  sc.fs().arm_victim_monitors(kMonitorThreshold);
  sc.sim().spawn(apply_pressure(ctx));
  sc.sim().run();  // drains every demote pass / evacuation

  TierPressureRow row;
  row.arm = opt.scenario.victim_tier_capacity > 0 ? "tiered" : "baseline";
  row.seed = opt.seed;
  row.pressure_events = ctx.pressure_events;
  auto& m = sc.cluster().obs().metrics;
  row.reclaim = m.histogram_summary("fs.victim_reclaim.latency");
  if (opt.scenario.victim_tier_capacity > 0) {
    // Guarded: create-or-get on the baseline registry would perturb its
    // metrics dump.
    row.demotions = m.counter("tier.demotions").value();
    row.promotions = m.counter("tier.promotions").value();
    row.cold_hits = m.counter("tier.cold_hits").value();
    for (NodeId v : sc.victim_nodes())
      if (sc.fs().has_server(v))
        row.cold_bytes += sc.fs().server(v).tier_bytes();
  }
  row.runtime = sc.sim().now();
  row.ok = ctx.writes_failed == 0 && row.reclaim.count > 0;
  if (ctx.writes_failed > 0) {
    LOG_WARN("exp") << "tier-pressure fill: " << ctx.writes_failed
                    << " writes failed";
  }
  return row;
}

std::string tier_pressure_csv_header() {
  return "arm,seed,pressure_events,demotions,promotions,cold_hits,"
         "cold_bytes,reclaim_count,reclaim_p50,reclaim_p99,reclaim_max,"
         "runtime,ok";
}

std::string tier_pressure_csv_row(const TierPressureRow& r) {
  return strformat(
      "%s,%llu,%zu,%llu,%llu,%llu,%llu,%llu,%.6f,%.6f,%.6f,%.3f,%d",
      r.arm.c_str(), (unsigned long long)r.seed, r.pressure_events,
      (unsigned long long)r.demotions, (unsigned long long)r.promotions,
      (unsigned long long)r.cold_hits, (unsigned long long)r.cold_bytes,
      (unsigned long long)r.reclaim.count, r.reclaim.p50, r.reclaim.p99,
      r.reclaim.max, r.runtime, int(r.ok));
}

}  // namespace memfss::exp
