// Command line of bench/loadgen: one flag table feeding one
// rt::DriverOptions. The mode flag (--qos, --net, --netchaos; else
// --threads for a single run; else the thread-scaling sweep) picks the
// base option set, then every other flag is applied in order. A flag
// the selected mode does not read is an error, not silently dropped.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "rt/driver.hpp"

namespace memfss::loadgen {

enum Mode : unsigned {
  kSweep = 1u << 0,   ///< no mode flag, no --threads
  kSingle = 1u << 1,  ///< --threads: one in-process run
  kNet = 1u << 2,     ///< --net: socket transport, several seeds
  kChaos = 1u << 3,   ///< --netchaos: chaos soak, faulted + clean arm
  kQos = 1u << 4,     ///< --qos: adversarial isolation
};

struct Cli {
  Mode mode = kSweep;
  rt::DriverOptions opt;
  std::size_t seeds = 3;          ///< --net, --netchaos: seeds from --seed on
  double min_ops_per_sec = 0.0;   ///< --net throughput floor (0 = none)
  double isolation_factor = 5.0;  ///< --qos small-tenant p99 limit
};

/// A flag's value, converted to whatever the field it sets holds.
struct Arg {
  const char* text;
  template <class T>
  operator T() const {
    if constexpr (std::is_floating_point_v<T>)
      return static_cast<T>(std::strtod(text, nullptr));
    else
      return static_cast<T>(std::strtoull(text, nullptr, 10));
  }
};

struct Flag {
  const char* name;
  unsigned modes;  ///< the modes that read it
  void (*set)(Cli&, Arg);
};

constexpr unsigned kInproc = kSweep | kSingle | kNet;  ///< the stream flags
constexpr unsigned kThreads = kSingle | kNet | kChaos;

// clang-format off
inline constexpr Flag kFlags[] = {
  {"--threads", kThreads, [](Cli& c, Arg v) {
     c.opt.tenants[0].client_threads = c.opt.server_threads = v; }},
  {"--server-threads", kThreads, [](Cli& c, Arg v) { c.opt.server_threads = v; }},
  {"--ops", kThreads, [](Cli& c, Arg v) { c.opt.tenants[0].ops_per_thread = v; }},
  {"--shards", kInproc, [](Cli& c, Arg v) { c.opt.shards = v; }},
  {"--batch", kInproc, [](Cli& c, Arg v) { c.opt.tenants[0].batch = v; }},
  {"--value-size", kInproc, [](Cli& c, Arg v) { c.opt.value_size = v; }},
  {"--get-ratio", kInproc, [](Cli& c, Arg v) { c.opt.get_fraction = v; }},
  {"--del-ratio", kInproc, [](Cli& c, Arg v) { c.opt.del_fraction = v; }},
  {"--skew", kInproc, [](Cli& c, Arg v) { c.opt.zipf_theta = v; }},
  {"--keys", kInproc, [](Cli& c, Arg v) { c.opt.key_space = v; }},
  {"--service-us", kInproc, [](Cli& c, Arg v) { c.opt.service_time_us = v; }},
  {"--seed", kInproc | kChaos | kQos, [](Cli& c, Arg v) { c.opt.seed = v; }},
  {"--connections", kNet, [](Cli& c, Arg v) { c.opt.connections_per_thread = v; }},
  {"--reactors", kNet | kChaos, [](Cli& c, Arg v) { c.opt.reactors = v; }},
  {"--seeds", kNet | kChaos, [](Cli& c, Arg v) { c.seeds = v; }},
  {"--min-ops-per-sec", kNet, [](Cli& c, Arg v) { c.min_ops_per_sec = v; }},
  {"--tenants", kQos, [](Cli& c, Arg v) {
     c.opt.tenants = rt::qos_options(v, 0).tenants; }},
  {"--isolation-factor", kQos, [](Cli& c, Arg v) { c.isolation_factor = v; }},
};
// clang-format on

/// Parse argv into `cli`. False when a flag is unknown, lacks its
/// value, or is not read by the selected mode (the caller prints usage
/// and exits 2).
inline bool parse_cli(int argc, char** argv, Cli& cli) {
  cli = Cli{};
  const std::vector<std::string> args(argv + 1, argv + argc);
  auto has = [&](const char* f) {
    return std::count(args.begin(), args.end(), f);
  };
  // The mode picks the base option set; the other flags then apply in
  // order.
  if (has("--qos") + has("--net") + has("--netchaos") > 1) return false;
  cli.mode = has("--qos")        ? kQos
             : has("--net")      ? kNet
             : has("--netchaos") ? kChaos
             : has("--threads")  ? kSingle
                                 : kSweep;
  if (cli.mode == kQos) cli.opt = rt::qos_options(8, 1);
  if (cli.mode == kChaos) cli.opt = rt::chaos_options(1, true);
  if (cli.mode & (kSweep | kSingle | kNet)) cli.opt.service_time_us = 200;
  if (cli.mode == kNet) {
    cli.opt.transport = rt::TransportKind::socket;
    cli.opt.connections_per_thread = 2;
    cli.opt.reactors = 2;
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--qos" || a == "--net" || a == "--netchaos") continue;
    const Flag* f = std::find_if(std::begin(kFlags), std::end(kFlags),
                                 [&](const Flag& f) { return a == f.name; });
    if (f == std::end(kFlags) || !(f->modes & cli.mode) ||
        i + 1 >= args.size())
      return false;
    f->set(cli, Arg{args[++i].c_str()});
  }
  return true;
}

}  // namespace memfss::loadgen
