// The shared retry backoff (common/resilience.hpp) against the two
// schedules it replaced: the fs client's (deterministic per-key jitter
// in [0, 1)) and the TCP ResilientClient's (RNG jitter in [-1, 1)). The
// retired functions are kept verbatim below as references; the shared
// one must reproduce them bit-for-bit under every backoff configuration
// in the tree, so retry timing -- and with it every seeded replay --
// is unchanged by the merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/resilience.hpp"
#include "common/rng.hpp"
#include "fs/client.hpp"
#include "fs/health.hpp"
#include "hash/hashes.hpp"
#include "netio/resilient_client.hpp"

namespace memfss {
namespace {

struct Schedule {
  double base;
  double max;
};

// Reference: the fs client's retired backoff, with its jitter fraction
// fixed at the 0.5 every configuration used.
SimTime fs_reference(const Schedule& s, std::string_view key, int attempt) {
  SimTime d = s.base * static_cast<double>(1u << std::min(attempt, 20));
  d = std::min(d, s.max);
  const double u = static_cast<double>(
                       hash::mix64(hash::key_digest(key),
                                   0x9e3779b9u + static_cast<std::uint64_t>(
                                                     attempt)) >>
                       11) *
                   0x1.0p-53;
  return d * (1.0 + 0.5 * u);
}

// Reference: ResilientClient's retired backoff; `fault_streak` counted
// from 1 and the jitter fraction was 0.5.
double netio_reference(const Schedule& s, std::uint32_t fault_streak,
                       Rng& rng) {
  double d = s.base;
  for (std::uint32_t i = 1; i < fault_streak && d < s.max; ++i) d *= 2;
  d = std::min(d, s.max);
  d *= 1.0 + 0.5 * (2 * rng.next_double() - 1);
  return std::max(d, 0.0);
}

// Every backoff configuration in the tree: the fs default, the
// ResilientOptions default, the load driver's chaos transport and the
// NetioChaos breaker test.
std::vector<Schedule> schedules() {
  const netio::ResilientOptions rc;
  return {{fs::kRetryBackoff, fs::kRetryBackoffMax},
          {rc.backoff_base_s, rc.backoff_max_s},
          {0.002, 0.05},
          {0.001, 0.01}};
}

TEST(Backoff, MatchesTheFsClientSchedule) {
  for (const Schedule& s : schedules()) {
    for (int k = 0; k < 64; ++k) {
      const std::string key = "/f" + std::to_string(k) + ".s3";
      for (int n = 0; n <= 64; ++n) {
        ASSERT_EQ(backoff_delay(s.base, s.max, n, fs::backoff_draw(key, n)),
                  fs_reference(s, key, n))
            << s.base << "/" << s.max << " " << key << " n=" << n;
      }
    }
  }
}

TEST(Backoff, MatchesTheResilientClientSchedule) {
  for (const Schedule& s : schedules()) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      Rng ref(seed);
      Rng rng(seed);
      for (int n = 0; n <= 64; ++n) {
        const double want =
            netio_reference(s, static_cast<std::uint32_t>(n) + 1, ref);
        ASSERT_EQ(backoff_delay(s.base, s.max, n, 2 * rng.next_double() - 1),
                  want)
            << s.base << "/" << s.max << " seed " << seed << " n=" << n;
      }
    }
  }
}

TEST(Backoff, DrawBoundsTheSpread) {
  // u in [0, 1) stretches the capped delay by up to 50%; u in [-1, 1)
  // centres it, +/- 50%.
  EXPECT_EQ(backoff_delay(0.25, 1.0, 0, 0.0), 0.25);
  EXPECT_EQ(backoff_delay(0.25, 1.0, 1, 1.0), 0.75);
  EXPECT_EQ(backoff_delay(0.25, 1.0, 10, -1.0), 0.5);
  EXPECT_EQ(backoff_delay(0.25, 1.0, 5000, 0.0), 1.0);  // no overflow
}

}  // namespace
}  // namespace memfss
