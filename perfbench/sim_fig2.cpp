// sim_fig2_ddbag: the paper's Fig. 2 point (alpha = 0.25, 2048 dd tasks x
// 128 MiB) through exp::run_fig2 -- the simulator (`sim`), the fabric
// (`net`) and placement (`fs`) do all the work; nothing in rt, netio or
// erasure runs. One op is one run_fig2 call. The scenario takes no
// seed: the seed is recorded and the input stays the same.
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "exp/experiments.hpp"
#include "fs/namespace.hpp"
#include "fs/placement.hpp"
#include "harness.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace memfss;

namespace {

constexpr double kAlpha = 0.25;
constexpr std::size_t kTasks = 2048;
constexpr Bytes kTaskBytes = 128 * units::MiB;
constexpr int kSetupsPerCall = 100;  ///< 0-task run_fig2 calls per set-up batch
// The reference run: simulated makespan and final data split. Any
// change that moves them changed the simulation, not only its speed.
constexpr double kRuntime = 0x1.e3de4a55671ep+3;  // 15.1209 simulated s
constexpr Bytes kOwnBytes = 68317084160;
constexpr Bytes kVictimBytes = 206561871360;

exp::Fig2Options fig2_options(std::size_t tasks) {
  exp::Fig2Options opt;
  opt.dd_tasks = tasks;
  opt.dd_bytes = kTaskBytes;
  return opt;
}

void check_row(const exp::Fig2Row& row, Report& r) {
  ++r.attempted;
  if (row.runtime != kRuntime || row.own_bytes != kOwnBytes ||
      row.victim_bytes != kVictimBytes) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "fig2 runtime %a own %llu victim %llu differ from the "
                  "reference", row.runtime,
                  static_cast<unsigned long long>(row.own_bytes),
                  static_cast<unsigned long long>(row.victim_bytes));
    r.fail(buf);
  }
}

/// Count column of metric `name` in a run's metrics CSV (0 if absent).
double csv_count(const std::string& csv, const std::string& name) {
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) {
    const auto a = line.find(',');
    const auto b = line.find(',', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    if (line.compare(a + 1, b - a - 1, name) != 0) continue;
    return std::strtod(line.c_str() + b + 1, nullptr);
  }
  return 0.0;
}

// --- per-layer probes: the public calls perf_hotpath times -----------------

sim::Task<> hold_flow(net::Fabric& fab, NodeId src, NodeId dst,
                      net::CapGroup* grp) {
  co_await fab.transfer(src, dst, Bytes{1} << 50, net::Fabric::kUncapped, grp);
}

/// Microseconds per max-min recompute at `flows` concurrent flows.
double fabric_recompute_us(SpanLog& log, std::size_t flows, double budget_s,
                           const char* span) {
  sim::Simulator sim;
  net::Fabric fab(sim, 64, net::NicSpec{});
  std::vector<std::unique_ptr<net::CapGroup>> groups;
  for (std::size_t g = 0; g < 8; ++g)
    groups.push_back(std::make_unique<net::CapGroup>(500e6));
  Rng rng(42);
  for (std::size_t i = 0; i < flows; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_u64(0, 31));
    const auto dst = static_cast<NodeId>(rng.uniform_u64(32, 63));
    sim.spawn(hold_flow(fab, src, dst,
                        dst % 8 < 4 ? groups[dst % groups.size()].get()
                                    : nullptr));
  }
  sim.run_until(1.0);
  std::vector<double> us;
  const auto stop = Clock::now() + std::chrono::duration<double>(budget_s);
  do {
    us.push_back(timed(log, span, [&] { fab.set_nic(0, net::NicSpec{}); }));
  } while (Clock::now() < stop || us.size() < 5);
  return quantile(us, 0.5);
}

double sim_events_per_s(SpanLog& log, double budget_s) {
  std::vector<double> rates;
  const auto stop = Clock::now() + std::chrono::duration<double>(budget_s);
  do {
    sim::Simulator sim;
    std::uint64_t remaining = 200000;
    std::function<void()> tick = [&] {
      if (remaining > 0) {
        --remaining;
        sim.schedule(1e-7, tick);
      }
    };
    for (int c = 0; c < 64; ++c) sim.schedule(0.0, tick);
    const double us = timed(log, "sim.run", [&] { sim.run(); });
    rates.push_back(static_cast<double>(sim.executed_events()) / us * 1e6);
  } while (Clock::now() < stop || rates.size() < 3);
  return quantile(rates, 0.5);
}

double fs_place_us(SpanLog& log, double budget_s) {
  fs::ClassMembership members;
  std::vector<NodeId> own, victims;
  for (NodeId n = 0; n < 8; ++n) own.push_back(n);
  for (NodeId n = 8; n < 40; ++n) victims.push_back(n);
  members.set_members(0, own);
  members.set_members(1, victims);
  fs::PlacementEpoch epoch;
  epoch.id = 1;
  epoch.weights = {{0, 0.42}, {1, 0.0}};
  fs::ClassHrwPolicy policy(epoch, members);
  // One span per batch: a single place() is shorter than a clock read.
  constexpr std::size_t kBatch = 1000;
  std::vector<double> us;
  std::size_t i = 0;
  volatile NodeId sink = 0;
  const auto stop = Clock::now() + std::chrono::duration<double>(budget_s);
  do {
    us.push_back(timed(log, "fs.place", [&] {
                   for (std::size_t j = 0; j < kBatch; ++j, ++i)
                     sink = policy.place(fs::Namespace::stripe_key(7, i), 2)[0];
                 }) /
                 kBatch);
  } while (Clock::now() < stop || us.size() < 5);
  (void)sink;
  return quantile(us, 0.5);
}

}  // namespace

void run_sim_fig2(const RunArgs& a, SpanLog& log, Report& r) {
  r.note("input: run_fig2(0.25), 2048 dd tasks x 128 MiB (scenario "
         "takes no seed; seed " + std::to_string(a.seed) + " recorded)");
  const auto full = fig2_options(kTasks);

  if (!a.trace) {
    // Set-up is timed between the measured calls as well as before
    // them, so the samples span the run's host conditions. A 0-task call
    // is far shorter than a spell of interference from other guests, so
    // each sample lands wholly inside one and the median swings with the
    // mix of spells; the fastest decile does not.
    std::vector<double> setup;
    auto set_up = [&] {
      for (int i = 0; i < kSetupsPerCall; ++i) {
        const auto t0 = Clock::now();
        (void)exp::run_fig2(kAlpha, fig2_options(0));
        setup.push_back(seconds_between(t0, Clock::now()));
      }
    };
    set_up();
    check_row(exp::run_fig2(kAlpha, full), r);  // warm caches and lazy set-up

    // One window per run_fig2 call: the op is the whole Fig. 2 point.
    Windows w(1);
    exp::Fig2Row row;
    const auto t0 = Clock::now();
    std::size_t runs = 0;
    do {
      set_up();
      const auto s = Clock::now();
      w.restart(s);
      row = exp::run_fig2(kAlpha, full);
      const auto e = Clock::now();
      w.add(us_between(s, e), e);
      check_row(row, r);
      ++runs;
    } while (seconds_between(t0, Clock::now()) < a.seconds || runs < 3);
    w.report(r, "run_fig2 calls");
    r.add("stored_bytes_per_user_byte",
          static_cast<double>(row.own_bytes + row.victim_bytes) /
              static_cast<double>(kTasks * kTaskBytes),
          "ratio");
    r.add("setup_s", quantile(setup, 0.1), "s");
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    return;
  }

  // Traced: one untraced and one traced run_fig2 give the span overhead
  // and the CPU per op; the layer probes split the remaining budget.
  check_row(exp::run_fig2(kAlpha, full), r);
  Windows w(1);
  const auto s = Clock::now();
  w.restart(s);
  auto row = exp::run_fig2(kAlpha, full);
  const auto e = Clock::now();
  const double plain_s = seconds_between(s, e);
  w.add(us_between(s, e), e);
  w.report(r, "run_fig2 calls");
  check_row(row, r);
  log.enable(true);
  const double traced_s =
      timed(log, "exp.run_fig2", [&] { row = exp::run_fig2(kAlpha, full); }) /
      1e6;
  check_row(row, r);

  const double budget = std::max(0.5, a.seconds - 3 * plain_s) / 5;
  r.add("sim.events_per_s", sim_events_per_s(log, budget), "1/s");
  r.add("net.recompute_us_f1000",
        fabric_recompute_us(log, 1000, budget, "net.recompute_f1000"), "us");
  r.add("net.recompute_us_f10000",
        fabric_recompute_us(log, 10000, budget, "net.recompute_f10000"), "us");
  r.add("fs.place_us", fs_place_us(log, budget), "us");
  r.add("net.msg_count", csv_count(row.metrics_csv, "net.msg.count"), "count");
  r.add("net.flow_count", csv_count(row.metrics_csv, "net.flow.lifetime"),
        "count");
  r.add("fs.stripe_writes",
        csv_count(row.metrics_csv, "fs.write_stripe.latency"), "count");
  r.add("exp.fig2_wall_s", plain_s, "s");
  r.add("trace_overhead_frac", traced_s / plain_s - 1.0, "frac");
}

}  // namespace perfbench
