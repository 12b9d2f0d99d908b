// perfbench: the repository benchmark binary (see README.md beside this
// file). One process runs one workload, so peak RSS belongs to it:
//
//   perfbench --workload <tcp_kv_1k|inproc_ec_64k|sim_fig2_ddbag>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// of every layer.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 1 when any op failed its reference check.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end) usage("--seed wants an integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end || !(a.seconds > 0)) usage("--seconds wants a positive number");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) usage("--trace wants 0 or 1");
      a.trace = v[0] == '1';
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

struct Workload {
  const char* name;
  void (*run)(const RunArgs&, SpanLog&, Report&);
};
constexpr Workload kWorkloads[] = {{"tcp_kv_1k", run_tcp_kv},
                                   {"inproc_ec_64k", run_inproc_ec},
                                   {"sim_fig2_ddbag", run_sim_fig2}};

}  // namespace

int main(int argc, char** argv) {
  const RunArgs a = parse(argc, argv);
  SpanLog log;
  Report r;
  const Workload* own = nullptr;
  for (const auto& w : kWorkloads)
    if (a.workload == w.name) own = &w;
  if (!own) usage(("unknown workload " + a.workload).c_str());
  try {
    own->run(a, log, r);
    // A traced run reports every layer. Layers this workload does not
    // run are probed on the inputs of the workload that does, with a
    // quarter of the budget; this workload's own readings come first.
    for (const auto& w : kWorkloads) {
      if (!a.trace || &w == own) continue;
      RunArgs sub = a;
      sub.workload = w.name;
      sub.seconds = a.seconds / 4;
      Report other;
      log.enable(false);
      w.run(sub, log, other);
      r.attempted += other.attempted;
      r.failed += other.failed;
      r.correct = r.correct && other.correct;
      for (auto& m : other.metrics)
        if (std::none_of(r.metrics.begin(), r.metrics.end(),
                         [&](const Metric& x) { return x.name == m.name; }))
          r.metrics.push_back(std::move(m));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (r.attempted == 0) r.fail("no op was attempted");

  if (a.trace && !a.trace_out.empty()) {
    if (log.write(a.trace_out))
      std::printf("spans: %llu recorded -> %s\n",
                  static_cast<unsigned long long>(log.recorded()),
                  a.trace_out.c_str());
    else
      std::fprintf(stderr, "warning: cannot write %s\n", a.trace_out.c_str());
  }

  std::printf("workload %s seed %llu trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
  for (const auto& n : r.notes) std::printf("  %s\n", n.c_str());
  std::printf("  %-28s %.6g frac (%llu failed / %llu attempted)\n",
              "error_rate",
              static_cast<double>(r.failed) /
                  static_cast<double>(r.attempted ? r.attempted : 1),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const auto& m : r.metrics)
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", r.metrics[i].name.c_str(), r.metrics[i].value,
                r.metrics[i].unit.c_str());
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
