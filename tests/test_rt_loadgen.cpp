#include "rt/driver.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "bench/loadgen_cli.hpp"

namespace memfss::rt {
namespace {

DriverOptions small_opts() {
  DriverOptions opt;
  opt.tenants[0].client_threads = 1;
  opt.server_threads = 1;
  opt.shards = 4;
  opt.tenants[0].ops_per_thread = 3000;
  opt.tenants[0].batch = 8;
  opt.value_size = 64;
  opt.get_fraction = 0.5;
  opt.del_fraction = 0.1;
  opt.key_space = 100;
  opt.capacity = 8 * units::MiB;
  opt.seed = 7;
  opt.service_time_us = 0;
  return opt;
}

StreamOptions small_stream() { return {7, 3000, 0.5, 0.1, 0.0, 100}; }

TEST(RtLoadgen, GeneratedStreamsAreDeterministic) {
  const auto opt = small_stream();
  const auto a = generate_stream(opt, 0);
  const auto b = generate_stream(opt, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].key_index, b[i].key_index) << i;
  }
}

TEST(RtLoadgen, StreamsDifferByThreadAndSeed) {
  auto opt = small_stream();
  const auto base = generate_stream(opt, 0);
  const auto other_thread = generate_stream(opt, 1);
  opt.seed = 8;
  const auto other_seed = generate_stream(opt, 0);
  auto differs = [&](const std::vector<GenOp>& v) {
    for (std::size_t i = 0; i < base.size(); ++i)
      if (base[i].type != v[i].type || base[i].key_index != v[i].key_index)
        return true;
    return false;
  };
  EXPECT_TRUE(differs(other_thread));
  EXPECT_TRUE(differs(other_seed));
}

TEST(RtLoadgen, ZipfThetaSkewsKeyPopularity) {
  auto opt = small_stream();
  opt.key_space = 1000;
  opt.ops_per_thread = 20000;
  opt.zipf_theta = 0.99;
  std::map<std::uint32_t, std::size_t> freq;
  for (const auto& g : generate_stream(opt, 0)) ++freq[g.key_index];
  const double uniform_share =
      static_cast<double>(opt.ops_per_thread) / opt.key_space;
  // Rank-0 key should be far above a uniform draw's 20 hits.
  EXPECT_GT(freq[0], 5 * uniform_share);
  opt.zipf_theta = 0.0;
  std::map<std::uint32_t, std::size_t> uf;
  for (const auto& g : generate_stream(opt, 0)) ++uf[g.key_index];
  EXPECT_LT(uf[0], 5 * uniform_share);
}

// The deterministic-replay smoke test: a fixed seed with one client
// thread and one worker thread executes the identical op stream, in the
// identical order, with identical results -- twice.
TEST(RtLoadgen, SingleThreadedReplayIsIdentical) {
  const auto opt = small_opts();
  const auto a = run_driver(opt);
  const auto b = run_driver(opt);
  EXPECT_NE(a.result_digest, 0u);
  EXPECT_EQ(a.result_digest, b.result_digest);
  EXPECT_EQ(a.total.puts, b.total.puts);
  EXPECT_EQ(a.total.gets, b.total.gets);
  EXPECT_EQ(a.total.dels, b.total.dels);
  EXPECT_EQ(a.total.not_found, b.total.not_found);
  EXPECT_EQ(a.total.rejected, 0u);
  EXPECT_EQ(a.total.errors, 0u);
  // A different seed must not replay to the same digest.
  auto opt2 = opt;
  opt2.seed = 8;
  EXPECT_NE(run_driver(opt2).result_digest, a.result_digest);
}

TEST(RtLoadgen, MultithreadedRunAccountsEveryOp) {
  auto opt = small_opts();
  opt.tenants[0].client_threads = 4;
  opt.server_threads = 4;
  opt.tenants[0].ops_per_thread = 2000;
  const auto run = run_driver(opt);
  const TenantResult& r = run.total;
  const std::uint64_t total = 4u * 2000u;
  EXPECT_EQ(r.puts + r.gets + r.dels + r.not_found + r.rejected +
                r.overloaded + r.errors,
            total);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.ops_per_sec, 0.0);
  // Shed ops (rejected or overloaded) never enter the latency
  // histogram -- they would fake sub-microsecond samples.
  EXPECT_EQ(r.latency.count, total - r.rejected - r.overloaded);
}

TEST(RtLoadgen, CsvRowMatchesHeaderSchema) {
  const auto r = run_driver(small_opts());
  auto fields = [](const std::string& line) {
    std::size_t n = 1;
    for (const char c : line) n += c == ',';
    return n;
  };
  EXPECT_EQ(fields(driver_csv_header()),
            fields(driver_csv_row("loadgen", r, 0)));
}

// Absolute replay digests. The tests above compare two runs with each
// other, which a change to the op stream or to the result fold would
// still pass; these pin the values themselves.
TEST(RtPinnedDigest, InProcessReplayAtTwoSeeds) {
  auto opt = small_opts();
  opt.seed = 7;
  EXPECT_EQ(run_driver(opt).result_digest, 3428130385591467146ull);
  opt.seed = 8;
  EXPECT_EQ(run_driver(opt).result_digest, 12486422684744302244ull);
}

TEST(RtPinnedDigest, CleanChaosArm) {
  DriverOptions opt = chaos_options(1, false);
  opt.tenants[0].client_threads = 2;
  opt.tenants[0].ops_per_thread = 250;
  opt.key_space = 48;
  DriverResult r = run_driver(opt);
  EXPECT_EQ(chaos_verdict(opt, r), "");
  EXPECT_EQ(r.result_digest, 15431005554405328071ull);
  EXPECT_EQ(r.oracle_digest, 15431005554405328071ull);
}

// bench/loadgen's flag table: a flag the selected mode does not read is
// an error, and a flag it does read is honoured whatever its value.
bool parse(std::vector<std::string> args, loadgen::Cli& cli) {
  args.insert(args.begin(), "loadgen");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return loadgen::parse_cli(static_cast<int>(argv.size()), argv.data(), cli);
}

TEST(LoadgenCli, NetchaosHonoursOpsEqualToTheRunDefault) {
  loadgen::Cli cli;
  ASSERT_TRUE(parse({"--netchaos", "--ops", "20000"}, cli));
  EXPECT_EQ(cli.mode, loadgen::kChaos);
  EXPECT_EQ(cli.opt.transport, TransportKind::chaos);
  EXPECT_EQ(cli.opt.tenants.at(0).ops_per_thread, 20000u);
}

TEST(LoadgenCli, FlagsTheModeDoesNotReadAreRejected) {
  loadgen::Cli cli;
  EXPECT_FALSE(parse({"--qos", "--ops", "100"}, cli));
  EXPECT_FALSE(parse({"--qos", "--value-size", "64"}, cli));
  EXPECT_FALSE(parse({"--netchaos", "--skew", "0.9"}, cli));
  EXPECT_FALSE(parse({"--ops", "100"}, cli));  // the sweep sets --ops itself
  EXPECT_FALSE(parse({"--net", "--tenants", "4"}, cli));
  EXPECT_FALSE(parse({"--net", "--qos"}, cli));
  EXPECT_FALSE(parse({"--threads"}, cli));
  EXPECT_FALSE(parse({"--bogus", "1"}, cli));
}

TEST(LoadgenCli, CheckScriptFlagsKeepTheirMeaning) {
  loadgen::Cli net;
  ASSERT_TRUE(parse({"--net", "--threads", "4", "--ops", "5000",
                     "--service-us", "0", "--connections", "2",
                     "--reactors", "2", "--seeds", "3",
                     "--min-ops-per-sec", "20000"},
                    net));
  EXPECT_EQ(net.opt.transport, TransportKind::socket);
  EXPECT_EQ(net.opt.tenants.at(0).client_threads, 4u);
  EXPECT_EQ(net.opt.server_threads, 4u);
  EXPECT_EQ(net.opt.tenants.at(0).ops_per_thread, 5000u);
  EXPECT_EQ(net.opt.service_time_us, 0u);
  EXPECT_EQ(net.opt.connections_per_thread, 2u);
  EXPECT_EQ(net.opt.reactors, 2u);
  EXPECT_EQ(net.seeds, 3u);
  EXPECT_EQ(net.min_ops_per_sec, 20000.0);

  loadgen::Cli chaos;
  ASSERT_TRUE(parse({"--netchaos", "--seeds", "3", "--ops", "600"}, chaos));
  EXPECT_EQ(chaos.seeds, 3u);
  EXPECT_EQ(chaos.opt.tenants.at(0).ops_per_thread, 600u);
  EXPECT_EQ(chaos.opt.tenants.at(0).client_threads, 3u);

  loadgen::Cli qos;
  ASSERT_TRUE(parse({"--qos", "--tenants", "8", "--seed", "2",
                     "--isolation-factor", "5.0"},
                    qos));
  EXPECT_EQ(qos.opt.tenants.size(), 9u);  // 8 small + the abuser
  EXPECT_TRUE(qos.opt.tenants.back().abusive);
  EXPECT_EQ(qos.opt.seed, 2u);
  EXPECT_EQ(qos.isolation_factor, 5.0);
}

}  // namespace
}  // namespace memfss::rt
