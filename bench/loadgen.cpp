// Closed-loop load generator for the concurrent runtime (src/rt) --
// memtier-style CLI over the one load driver, rt::run_driver. The flag
// table is bench/loadgen_cli.hpp and usage() prints it; a flag the
// selected mode does not read exits 2. Every mode prints the one CSV
// schema of rt::driver_csv_header(); EXPERIMENTS.md ("Concurrent
// runtime loadgen") describes the modes and which columns each fills.
//
//   (no mode flag)  thread-scaling sweep: 16384 ops at 1, 2, 4 and 8
//                   client+server threads with a 200us service time per
//                   op; prints the 8-vs-1 speedup. With --threads N,
//                   one in-process run instead.
//   --qos           adversarial isolation (DESIGN.md §12); exits 1 if a
//                   small tenant's p99 degrades past --isolation-factor,
//                   the abuser is not shed via Errc::overloaded, or the
//                   accounting breaks.
//   --net           socket transport (DESIGN.md §13), --seeds seeds;
//                   exits 1 on a lost or duplicated response, a
//                   transport error, or throughput under
//                   --min-ops-per-sec.
//   --netchaos      chaos transport (DESIGN.md §15), a faulted and a
//                   clean arm per seed; exits 1 if rt::chaos_verdict
//                   fails an arm or a faulted arm injected no faults.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench/loadgen_cli.hpp"

using namespace memfss;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--qos|--net|--netchaos] [--flag value]...\n"
               "No mode flag: the in-process thread-scaling sweep (1,2,4,8);\n"
               "with --threads, one in-process run. Flags, and the modes "
               "that read them:\n",
               argv0);
  const char* modes[] = {"sweep", "single", "net", "netchaos", "qos"};
  for (const loadgen::Flag& f : loadgen::kFlags) {
    std::fprintf(stderr, "  %-20s", f.name);
    for (unsigned m = 0; m < 5; ++m)
      if (f.modes & (1u << m)) std::fprintf(stderr, " %s", modes[m]);
    std::fprintf(stderr, "\n");
  }
}

void print_rows(const char* scenario, const rt::DriverResult& r) {
  for (std::size_t t = 0; t < r.tenants.size(); ++t)
    std::printf("%s\n", rt::driver_csv_row(scenario, r, t).c_str());
  std::fflush(stdout);
}

/// --net's checks: every request answered exactly once, no transport
/// error, throughput over the floor. "" when the seed passed.
std::string net_verdict(const loadgen::Cli& cli, rt::DriverResult& r) {
  const rt::TenantResult& t = r.total;
  char why[160] = "";
  if (t.unanswered != 0 || r.duplicated != 0 || r.transport_errors != 0)
    std::snprintf(why, sizeof(why),
                  "accounting: %" PRIu64 "/%" PRIu64 " answered, %" PRIu64
                  " lost, %" PRIu64 " duplicated, %" PRIu64 " transport errors",
                  t.submitted - t.unanswered, t.submitted, t.unanswered,
                  r.duplicated, r.transport_errors);
  else if (cli.min_ops_per_sec > 0.0 && t.ops_per_sec < cli.min_ops_per_sec)
    std::snprintf(why, sizeof(why), "throughput %.0f < floor %.0f",
                  t.ops_per_sec, cli.min_ops_per_sec);
  r.passed = why[0] == '\0';
  return why;
}

/// --net (one run per seed) and --netchaos (a faulted and a clean arm
/// per seed): exit 1 if any run fails its checks.
int run_seeds(const loadgen::Cli& cli) {
  const bool chaos = cli.mode == loadgen::kChaos;
  const char* mode = chaos ? "netchaos" : "net";
  bool ok = true;
  for (std::size_t s = 0; s < cli.seeds; ++s) {
    for (const bool faults : {true, false}) {
      if (!faults && !chaos) continue;
      rt::DriverOptions o = cli.opt;
      o.seed = cli.opt.seed + s;
      o.faults = faults;
      rt::DriverResult r = rt::run_driver(o);
      const std::string why =
          chaos ? rt::chaos_verdict(o, r) : net_verdict(cli, r);
      print_rows(mode, r);
      const char* arm = !chaos ? "" : faults ? " (faulted arm)" : " (clean arm)";
      if (!why.empty()) {
        std::fprintf(stderr, "%s: FAIL seed %" PRIu64 "%s: %s\n", mode, o.seed,
                     arm, why.c_str());
        ok = false;
      }
      if (!chaos) continue;
      // A faulted arm that injected nothing proves nothing.
      const netio::ChaosStats& x = r.chaos;
      const std::uint64_t injected = x.resets_injected + x.blackholed +
                                     x.chunks_corrupted + x.chunks_torn;
      if (faults && injected == 0) {
        std::fprintf(stderr,
                     "netchaos: FAIL seed %" PRIu64 ": no faults fired (vacuous)\n",
                     o.seed);
        ok = false;
      }
      std::fprintf(stderr,
                   "netchaos: seed %" PRIu64 "%s: %" PRIu64 "/%" PRIu64
                   " acked, %" PRIu64 " retries, %" PRIu64 " reconnects, %" PRIu64
                   " resets, %" PRIu64 " corrupt, p99 %.2fms\n",
                   o.seed, arm, r.total.submitted - r.total.unanswered,
                   r.total.submitted, r.client.retries, r.client.reconnects,
                   x.resets_injected, x.chunks_corrupted,
                   r.total.latency.p99 * 1e3);
    }
  }
  if (ok && chaos)
    std::fprintf(stderr,
                 "netchaos: OK (%zu seeds x 2 arms, zero lost/duplicated "
                 "acked ops)\n",
                 cli.seeds);
  if (ok && !chaos)
    std::fprintf(stderr, "net: OK (%zu seeds, zero lost/duplicated)\n",
                 cli.seeds);
  return ok ? 0 : 1;
}

int run_qos(const loadgen::Cli& cli) {
  auto sc = rt::run_qos_adversarial(cli.opt);
  bool ok = true;
  std::fprintf(stderr, "qos: worst small-tenant p99 isolation: %.2fx (limit %.2fx)\n",
               sc.worst_isolation, cli.isolation_factor);
  if (sc.worst_isolation > cli.isolation_factor) {
    std::fprintf(stderr, "qos: FAIL isolation factor exceeded\n");
    ok = false;
  }
  if (!sc.abuser_shed_via_overload) {
    std::fprintf(stderr, "qos: FAIL abuser not shed via Errc::overloaded\n");
    ok = false;
  }
  for (const auto* run : {&sc.baseline, &sc.adversarial})
    if (!run->accounting_ok) {
      std::fprintf(stderr, "qos: FAIL accounting: %s\n",
                   run->accounting_msg.c_str());
      ok = false;
    }
  sc.baseline.passed = sc.adversarial.passed = ok;
  print_rows("baseline", sc.baseline);
  print_rows("adversarial", sc.adversarial);
  if (ok) std::fprintf(stderr, "qos: OK\n");
  return ok ? 0 : 1;
}

// Sweep: fixed total work (16k ops) redistributed over the thread
// counts so every point does the same job.
int run_sweep(const loadgen::Cli& cli) {
  const std::size_t total_ops = 16384;
  double ops_1 = 0.0, ops_8 = 0.0;
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    rt::DriverOptions o = cli.opt;
    o.tenants[0].client_threads = n;
    o.server_threads = n;
    o.tenants[0].ops_per_thread = total_ops / n;
    const auto r = rt::run_driver(o);
    print_rows("loadgen", r);
    if (n == 1) ops_1 = r.total.ops_per_sec;
    if (n == 8) ops_8 = r.total.ops_per_sec;
  }
  const double speedup = ops_1 > 0.0 ? ops_8 / ops_1 : 0.0;
  std::fprintf(stderr, "loadgen: 8-thread vs 1-thread throughput: %.2fx\n",
               speedup);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  loadgen::Cli cli;
  if (!loadgen::parse_cli(argc, argv, cli)) {
    usage(argv[0]);
    return 2;
  }
  std::printf("%s\n", rt::driver_csv_header().c_str());
  switch (cli.mode) {
    case loadgen::kQos: return run_qos(cli);
    case loadgen::kChaos:
    case loadgen::kNet: return run_seeds(cli);
    case loadgen::kSingle: print_rows("loadgen", rt::run_driver(cli.opt)); return 0;
    case loadgen::kSweep: return run_sweep(cli);
  }
  return 2;
}
