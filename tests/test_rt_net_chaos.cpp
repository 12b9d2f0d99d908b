// Tests for the network chaos soak (the load driver's chaos transport
// plus rt::chaos_verdict, DESIGN.md §15): the clean arm must be bit-identical to the in-process
// replay, the faulted arm must hold its acked-op invariants while real
// faults fire, and the CSV surface must stay consistent with its
// header.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "rt/driver.hpp"

namespace memfss::rt {
namespace {

DriverOptions small_options(std::uint64_t seed, bool faults) {
  DriverOptions opt = chaos_options(seed, faults);
  opt.tenants[0].client_threads = 2;
  opt.tenants[0].ops_per_thread = 250;
  opt.key_space = 48;
  return opt;
}

std::size_t count_columns(const std::string& csv) {
  std::size_t n = 1;
  for (const char c : csv)
    if (c == ',') ++n;
  return n;
}

TEST(RtNetChaos, CleanArmReproducesInProcessDigest) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const DriverOptions opt = small_options(seed, false);
    DriverResult r = run_driver(opt);
    const std::string why = chaos_verdict(opt, r);
    EXPECT_TRUE(why.empty()) << "seed " << seed << ": " << why;
    EXPECT_EQ(r.total.unanswered, 0u) << "seed " << seed;  // failed calls
    EXPECT_EQ(r.total.submitted - r.total.unanswered, r.total.submitted)
        << "seed " << seed;  // acked == calls
    ASSERT_TRUE(r.oracle_digest.has_value());
    EXPECT_EQ(r.result_digest, *r.oracle_digest)
        << "seed " << seed << ": wire digest " << r.result_digest
        << " != oracle " << *r.oracle_digest;
    EXPECT_EQ(r.lost_acks, 0u);
    EXPECT_EQ(r.duplicated_acks, 0u);
    EXPECT_EQ(r.consistency_violations, 0u);
    EXPECT_TRUE(r.accounting_ok) << r.accounting_msg;
    // With faults disabled the proxy must not have injected anything.
    EXPECT_EQ(r.chaos.resets_injected, 0u);
    EXPECT_EQ(r.chaos.chunks_corrupted, 0u);
  }
}

TEST(RtNetChaos, FaultedRunHoldsAckedOpInvariants) {
  const DriverOptions opt = small_options(1, true);
  DriverResult r = run_driver(opt);
  const std::string why = chaos_verdict(opt, r);
  EXPECT_TRUE(why.empty()) << why;
  EXPECT_EQ(r.total.submitted, 500u);  // calls
  EXPECT_GT(r.total.submitted - r.total.unanswered, 0u);  // acked
  EXPECT_EQ(r.lost_acks, 0u);
  EXPECT_EQ(r.duplicated_acks, 0u);
  EXPECT_EQ(r.consistency_violations, 0u);
  EXPECT_TRUE(r.accounting_ok) << r.accounting_msg;
  // Integrity failures are allowed to *happen* under corruption -- they
  // must surface as retries/fatal calls, never as wrong data, which the
  // invariants above already pin down.
  EXPECT_EQ(r.client.mismatched_ids, 0u);
  EXPECT_EQ(r.client.value_checksum_failures, 0u);
}

TEST(RtNetChaos, CsvRowMatchesHeader) {
  const std::string header = driver_csv_header();
  const DriverOptions opt = small_options(4, false);
  DriverResult r = run_driver(opt);
  chaos_verdict(opt, r);
  const std::string row = driver_csv_row("netchaos", r, 0);
  EXPECT_EQ(count_columns(row), count_columns(header));
  // The seed column carries the arm's seed.
  std::istringstream hs(header), rs(row);
  std::string h, v, seed;
  while (std::getline(hs, h, ',') && std::getline(rs, v, ','))
    if (h == "seed") seed = v;
  EXPECT_EQ(seed, "4");
  EXPECT_NE(header.find("lost_acks"), std::string::npos);
  EXPECT_NE(header.find("digest_ok"), std::string::npos);
}

}  // namespace
}  // namespace memfss::rt
