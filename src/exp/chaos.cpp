#include "exp/chaos.hpp"

#include <cstring>
#include <utility>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "fs/client.hpp"
#include "fs/health.hpp"
#include "hash/hashes.hpp"
#include "kvstore/store.hpp"

namespace memfss::exp {
namespace {

struct AckedFile {
  std::string path;
  std::uint64_t content_seed = 0;
  Bytes size = 0;
};

/// Deterministic payload: the verifier regenerates it from the seed
/// instead of holding every written byte for the whole soak.
std::vector<std::uint8_t> make_payload(std::uint64_t content_seed,
                                       Bytes size) {
  std::vector<std::uint8_t> out(size);
  Rng rng(content_seed);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(&out[i], &w, 8);
  }
  if (i < out.size()) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(&out[i], &w, out.size() - i);
  }
  return out;
}

struct SoakCtx {
  const ChaosSoakOptions* opt = nullptr;
  Scenario* sc = nullptr;
  std::vector<AckedFile> acked;
  std::vector<std::pair<NodeId, Bytes>> tenant_allocs;
  std::size_t write_failures = 0;
  std::size_t pressure_events = 0;
};

/// One writer: `files_per_writer` checksummable files spread across the
/// fault horizon, with opportunistic re-reads of earlier acks in between
/// (those reads run *during* the faults and exercise hedges, breakers,
/// degraded fallbacks; their failures are tolerated).
sim::Task<> run_writer(SoakCtx& ctx, NodeId node, std::size_t idx) {
  auto& sim = ctx.sc->sim();
  fs::Client c = ctx.sc->fs().client(node);
  Rng rng(hash::mix64(ctx.opt->seed, 0x3a7e0000u + idx));
  (void)co_await c.mkdirs(strformat("/w%zu", idx));
  const double gap =
      ctx.opt->horizon / static_cast<double>(ctx.opt->files_per_writer + 1);
  for (std::size_t f = 0; f < ctx.opt->files_per_writer; ++f) {
    co_await sim.delay(rng.exponential(gap));
    const Bytes size =
        rng.uniform_u64(ctx.opt->file_bytes_min, ctx.opt->file_bytes_max);
    const std::uint64_t cseed =
        hash::mix64(ctx.opt->seed, (std::uint64_t(idx) << 16) | f);
    std::string path = strformat("/w%zu/f%zu", idx, f);
    const Status st =
        co_await c.write_file_bytes(path, make_payload(cseed, size));
    if (st.ok()) {
      ctx.acked.push_back({std::move(path), cseed, size});
    } else {
      ++ctx.write_failures;
      LOG_INFO("chaos") << "write " << path
                        << " defeated: " << st.error().to_string();
    }
    if (!ctx.acked.empty() && rng.chance(0.5)) {
      const auto& back =
          ctx.acked[rng.uniform_u64(0, ctx.acked.size() - 1)];
      (void)co_await c.read_file_bytes(back.path);
    }
  }
}

/// Synthetic tenant on one victim node: at Poisson arrivals, allocate the
/// pool up to just past the monitor threshold so the pressure callback
/// fires and the eviction pipeline runs. Allocations are tracked and
/// released when the soak heals.
sim::Task<> tenant_pressure(SoakCtx& ctx, NodeId victim, std::size_t idx) {
  auto& sim = ctx.sc->sim();
  auto& pool = ctx.sc->cluster().node(victim).memory();
  Rng rng(hash::mix64(ctx.opt->seed, 0x9e550000u + idx));
  if (ctx.opt->evict_rate <= 0.0) co_return;
  const double mean_gap = ctx.opt->horizon / ctx.opt->evict_rate;
  double t = rng.exponential(mean_gap);
  while (t < ctx.opt->horizon) {
    co_await sim.delay(t - sim.now() > 0 ? t - sim.now() : 0.0);
    const auto over = static_cast<Bytes>(
        kPressureFill * static_cast<double>(pool.capacity()));
    if (pool.used() < over) {
      const Bytes want = over - pool.used();
      if (pool.try_alloc(want)) {
        ctx.tenant_allocs.emplace_back(victim, want);
        ++ctx.pressure_events;
      }
    }
    t += rng.exponential(mean_gap);
  }
}

sim::Task<> verify_acked(SoakCtx& ctx, ChaosInvariants& inv) {
  fs::Client c = ctx.sc->fs().client(ctx.sc->own_nodes().front());
  for (const auto& f : ctx.acked) {
    auto r = co_await c.read_file_bytes(f.path);
    if (!r.ok()) {
      inv.violations.push_back(strformat(
          "acked file %s unreadable after heal: %s", f.path.c_str(),
          r.error().to_string().c_str()));
      continue;
    }
    if (r.value() != make_payload(f.content_seed, f.size)) {
      inv.violations.push_back(
          strformat("acked file %s read back with wrong contents "
                    "(%zu bytes expected %zu)",
                    f.path.c_str(), r.value().size(),
                    std::size_t(f.size)));
      continue;
    }
    ++inv.files_verified;
  }
}

/// Memory-accounting invariant: on every node that still runs a live
/// server, the pool's usage must equal the store's accounted bytes (the
/// synthetic tenant pressure has been released by now), and the store's
/// own accounting must equal the sum of its keys -- a stripe counted
/// twice, or freed twice, breaks one of the two equalities.
void check_accounting(SoakCtx& ctx, ChaosInvariants& inv) {
  auto& fs = ctx.sc->fs();
  const std::size_t total = ctx.sc->params().total_nodes;
  for (NodeId n = 0; n < total; ++n) {
    if (!fs.has_server(n)) continue;
    auto& srv = fs.server(n);
    if (!srv.is_up()) continue;  // crashed: wiped and released
    const auto& store = srv.store();
    Bytes by_keys = 0;
    for (const auto& k : store.keys()) {
      const auto* blob = store.peek(k);
      if (blob != nullptr)
        by_keys += blob->size() + kvstore::Store::kPerKeyOverhead;
    }
    if (by_keys != store.used()) {
      inv.violations.push_back(strformat(
          "node %u store accounting drifted: keys sum to %llu, "
          "used() says %llu",
          unsigned(n), (unsigned long long)by_keys,
          (unsigned long long)store.used()));
    }
    const Bytes pool_used = ctx.sc->cluster().node(n).memory().used();
    if (pool_used != store.used()) {
      inv.violations.push_back(strformat(
          "node %u pool/store mismatch: pool %llu vs store %llu "
          "(stripe double-count or leak)",
          unsigned(n), (unsigned long long)pool_used,
          (unsigned long long)store.used()));
    }
    // Tiering invariants (DESIGN.md §16): the cold tier's accounting must
    // equal the sum of its entries, stay under its capacity, and never
    // share a key with the hot store (no dual residency) -- even after
    // crashes landed mid-demotion or mid-promotion.
    if (srv.tiered()) {
      const auto* tier = srv.tier();
      Bytes cold_by_keys = 0;
      for (const auto& k : tier->keys()) {
        if (auto sz = tier->value_size({}, k); sz.ok())
          cold_by_keys += sz.value() + kvstore::Store::kPerKeyOverhead;
        if (store.peek(k) != nullptr) {
          inv.violations.push_back(strformat(
              "node %u key %s resident in both tiers", unsigned(n),
              k.c_str()));
        }
      }
      if (cold_by_keys != tier->used()) {
        inv.violations.push_back(strformat(
            "node %u cold-tier accounting drifted: keys sum to %llu, "
            "used() says %llu",
            unsigned(n), (unsigned long long)cold_by_keys,
            (unsigned long long)tier->used()));
      }
      if (tier->used() > tier->capacity()) {
        inv.violations.push_back(strformat(
            "node %u cold tier over capacity: %llu > %llu", unsigned(n),
            (unsigned long long)tier->used(),
            (unsigned long long)tier->capacity()));
      }
    }
  }
}

void check_recovery_balance(const fs::RecoveryStats& rec,
                            ChaosInvariants& inv) {
  if (rec.repairs != rec.failures_handled) {
    inv.violations.push_back(strformat(
        "recovery imbalance: %zu failures handled but %zu repair "
        "passes completed",
        rec.failures_handled, rec.repairs));
  }
  if (rec.total_repair_time < 0.0) {
    inv.violations.push_back("negative total repair time");
  }
}

}  // namespace

ChaosSoakRow run_chaos_soak(const ChaosSoakOptions& opt) {
  ScenarioParams p = opt.scenario;
  if (p.redundancy == fs::RedundancyMode::none) {
    p.redundancy = fs::RedundancyMode::replicated;
    p.copies = 2;
  }
  Scenario sc(p);
  sc.fs().set_fault_tuning(opt.rpc_timeout, opt.failure_detect_delay,
                           opt.revocation_grace);
  sc.fs().set_resilience_tuning(opt.breaker, opt.hedge_quantile,
                                opt.hedge_min_samples);
  cluster::FaultInjector inj(sc.sim(), sc.cluster());
  sc.fs().attach_fault_injector(inj);
  sc.fs().arm_victim_monitors(kMonitorThreshold);

  // One RNG stream per concern, all derived from the soak seed: fault
  // schedule, writer behavior, and tenant pressure never perturb each
  // other's draws, so tweaking one knob replays the rest byte-identically.
  Rng fault_rng(hash::mix64(opt.seed, 0xc4a05u));
  cluster::FaultPlan::RandomParams vr;
  vr.horizon = opt.horizon;
  vr.crash_rate = opt.crash_rate;
  vr.stall_rate = opt.stall_rate;
  vr.stall_duration = opt.stall_duration;
  auto plan = cluster::FaultPlan::random(fault_rng, sc.victim_nodes(), vr);

  cluster::FaultPlan::RandomParams pr;
  pr.horizon = opt.horizon;
  pr.partition_rate = opt.partition_rate;
  pr.partition_duration = opt.partition_duration;
  pr.partition_link_fraction = opt.partition_link_fraction;
  pr.partition_oneway_fraction = opt.partition_oneway_fraction;
  std::vector<NodeId> everyone = sc.own_nodes();
  everyone.insert(everyone.end(), sc.victim_nodes().begin(),
                  sc.victim_nodes().end());
  plan.append(cluster::FaultPlan::random(fault_rng, everyone, pr));

  if (opt.revoke_mid_run && !sc.victim_nodes().empty()) {
    const SimTime at =
        opt.revoke_at > 0 ? opt.revoke_at : 0.7 * opt.horizon;
    plan.revoke_class(at, 1);
  }
  inj.arm(plan);

  SoakCtx ctx;
  ctx.opt = &opt;
  ctx.sc = &sc;
  const auto& own = sc.own_nodes();
  for (std::size_t i = 0; i < opt.writers; ++i)
    sc.sim().spawn(run_writer(ctx, own[i % own.size()], i));
  {
    std::size_t i = 0;
    for (NodeId v : sc.victim_nodes())
      sc.sim().spawn(tenant_pressure(ctx, v, i++));
  }

  // End of the chaos window: restore every link and hand the tenant
  // allocations back, then let recovery and stalled flows quiesce (the
  // event queue drains naturally -- nothing recurring is armed).
  sc.sim().schedule(opt.horizon, [&] {
    inj.heal_now();
    for (const auto& [node, bytes] : ctx.tenant_allocs)
      sc.cluster().node(node).memory().free(bytes);
    ctx.tenant_allocs.clear();
  });
  sc.sim().run();

  ChaosSoakRow row;
  row.seed = opt.seed;
  row.invariants.files_acked = ctx.acked.size();
  row.invariants.write_failures = ctx.write_failures;
  row.invariants.pressure_events = ctx.pressure_events;

  // Verification phase: everything is healed and quiescent.
  sc.sim().spawn(verify_acked(ctx, row.invariants));
  sc.sim().run();
  check_accounting(ctx, row.invariants);
  check_recovery_balance(sc.fs().recovery(), row.invariants);

  row.runtime = sc.sim().now();
  row.injected = inj.stats();
  row.counters = sc.fs().counters();
  row.recovery = sc.fs().recovery();
  row.breaker_opens = sc.fs().health().opens();
  if (p.victim_tier_capacity > 0) {
    // Only tiered runs read the tier.* instruments: create-or-get would
    // add them to an untiered registry and perturb its metrics dump.
    auto& m = sc.cluster().obs().metrics;
    row.tier_demotions = m.counter("tier.demotions").value();
    row.tier_promotions = m.counter("tier.promotions").value();
    row.tier_cold_hits = m.counter("tier.cold_hits").value();
    for (NodeId v : sc.victim_nodes())
      if (sc.fs().has_server(v))
        row.tier_cold_bytes += sc.fs().server(v).tier_bytes();
  }
  row.ok = row.invariants.ok();
  for (const auto& v : row.invariants.violations)
    LOG_WARN("chaos") << "invariant violation: " << v;
  return row;
}

std::string chaos_csv_header() {
  return "seed,runtime,crashes,stalls,partitions,heals,revocations,"
         "evictions,pressure_events,files_acked,files_verified,"
         "write_failures,degraded_reads,hedged_reads,hedge_wins,"
         "breaker_opens,breaker_rejections,breaker_reroutes,"
         "failures_handled,repairs,stripes_repaired,"
         "demotions,promotions,cold_hits,cold_bytes,violations,ok";
}

std::string chaos_csv_row(const ChaosSoakRow& r) {
  return strformat(
      "%llu,%.3f,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%llu,%llu,%llu,"
      "%zu,%llu,%llu,%zu,%zu,%zu,%llu,%llu,%llu,%llu,%zu,%d",
      (unsigned long long)r.seed, r.runtime, r.injected.crashes,
      r.injected.stalls, r.injected.partitions, r.injected.heals,
      r.injected.revocations, r.injected.evictions,
      r.invariants.pressure_events, r.invariants.files_acked,
      r.invariants.files_verified, r.invariants.write_failures,
      (unsigned long long)r.counters.degraded_reads,
      (unsigned long long)r.counters.hedged_reads,
      (unsigned long long)r.counters.hedge_wins, r.breaker_opens,
      (unsigned long long)r.counters.breaker_rejections,
      (unsigned long long)r.counters.breaker_reroutes,
      r.recovery.failures_handled, r.recovery.repairs,
      r.recovery.stripes_repaired,
      (unsigned long long)r.tier_demotions,
      (unsigned long long)r.tier_promotions,
      (unsigned long long)r.tier_cold_hits,
      (unsigned long long)r.tier_cold_bytes,
      r.invariants.violations.size(), int(r.ok));
}

}  // namespace memfss::exp
