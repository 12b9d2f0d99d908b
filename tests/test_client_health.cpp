// Client resilience under partitions: the circuit-breaker state machine
// (unit level), breaker behavior on the live read/write path when a link
// is cut, and hedged reads racing a second replica past a stalled
// primary. Companion to test_fabric.cpp (cut mechanics) and
// test_fault_injector.cpp (partition scheduling).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "co_test.hpp"
#include "common/str.hpp"
#include "fs/client.hpp"
#include "fs/filesystem.hpp"
#include "fs/health.hpp"

namespace memfss::fs {
namespace {

// --- CircuitBreaker state machine (no simulator needed) ---------------------

constexpr BreakerConfig kCfg{/*failure_threshold=*/3, /*cooldown=*/1.0};

TEST(CircuitBreaker, OpensAfterConsecutiveFaults) {
  CircuitBreaker b;
  EXPECT_TRUE(b.allow(kCfg, 0.0));
  EXPECT_FALSE(b.record(kCfg, true, 0.1));
  EXPECT_FALSE(b.record(kCfg, true, 0.2));
  EXPECT_EQ(b.state(), BreakerState::closed);
  EXPECT_TRUE(b.allow(kCfg, 0.2));
  EXPECT_TRUE(b.record(kCfg, true, 0.3));  // third fault: transition
  EXPECT_EQ(b.state(), BreakerState::open);
  EXPECT_FALSE(b.allow(kCfg, 0.5));  // cooldown not elapsed
}

TEST(CircuitBreaker, SuccessResetsTheStreak) {
  CircuitBreaker b;
  b.record(kCfg, true, 0.1);
  b.record(kCfg, true, 0.2);
  b.record(kCfg, false, 0.3);  // success: streak back to zero
  EXPECT_EQ(b.consecutive_failures(), 0);
  b.record(kCfg, true, 0.4);
  b.record(kCfg, true, 0.5);
  EXPECT_EQ(b.state(), BreakerState::closed);
}

TEST(CircuitBreaker, HalfOpenAdmitsOneTrialThenCloses) {
  CircuitBreaker b;
  for (int i = 0; i < 3; ++i) b.record(kCfg, true, 0.1);
  ASSERT_EQ(b.state(), BreakerState::open);
  EXPECT_TRUE(b.allow(kCfg, 1.2));  // cooldown elapsed -> half-open trial
  EXPECT_EQ(b.state(), BreakerState::half_open);
  EXPECT_FALSE(b.allow(kCfg, 1.3));  // only one trial in flight
  b.record(kCfg, false, 1.4);        // trial succeeded
  EXPECT_EQ(b.state(), BreakerState::closed);
  EXPECT_TRUE(b.allow(kCfg, 1.5));
}

TEST(CircuitBreaker, FailedTrialReopensForAnotherCooldown) {
  CircuitBreaker b;
  for (int i = 0; i < 3; ++i) b.record(kCfg, true, 0.0);
  EXPECT_TRUE(b.allow(kCfg, 1.0));             // half-open
  EXPECT_TRUE(b.record(kCfg, true, 1.1));      // trial failed: open again
  EXPECT_EQ(b.state(), BreakerState::open);
  EXPECT_FALSE(b.allow(kCfg, 1.5));   // new cooldown runs from the reopen
  EXPECT_TRUE(b.allow(kCfg, 2.2));    // and eventually admits a new trial
  EXPECT_EQ(b.state(), BreakerState::half_open);
}

TEST(CircuitBreaker, ZeroThresholdNeverOpens) {
  constexpr BreakerConfig kOff{/*failure_threshold=*/0, /*cooldown=*/1.0};
  CircuitBreaker b;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(b.allow(kOff, double(i)));
    EXPECT_FALSE(b.record(kOff, true, double(i)));
  }
  EXPECT_EQ(b.state(), BreakerState::closed);
  EXPECT_EQ(b.consecutive_failures(), 0);
}

TEST(CircuitBreaker, EachRecordedTrialFreesTheNext) {
  // A half-open breaker admits the next trial only once the previous
  // one's outcome is recorded -- whatever that outcome was.
  CircuitBreaker b;
  for (int i = 0; i < 3; ++i) b.record(kCfg, true, 0.0);
  SimTime t = 1.0;
  for (int trial = 0; trial < 5; ++trial, t += 1.0) {
    ASSERT_TRUE(b.allow(kCfg, t)) << trial;
    EXPECT_FALSE(b.allow(kCfg, t));  // the trial is still outstanding
    EXPECT_TRUE(b.record(kCfg, true, t));
    EXPECT_EQ(b.opened_at(), t);
  }
  ASSERT_TRUE(b.allow(kCfg, t));
  EXPECT_FALSE(b.record(kCfg, false, t));
  EXPECT_EQ(b.state(), BreakerState::closed);
}

TEST(HealthRegistry, DisabledRegistryIsInert) {
  HealthRegistry reg(BreakerConfig{0, 1.0}, nullptr);
  EXPECT_FALSE(reg.enabled());
  for (int i = 0; i < 100; ++i) reg.record(7, Errc::timeout, double(i));
  EXPECT_TRUE(reg.allow(7, 100.0));
  EXPECT_EQ(reg.state(7), BreakerState::closed);
  EXPECT_EQ(reg.opens(), 0u);
}

TEST(HealthRegistry, RejectionsNeverFeedTheBreaker) {
  HealthRegistry reg(BreakerConfig{2, 1.0}, nullptr);
  for (int i = 0; i < 10; ++i) reg.record(3, Errc::rejected, double(i));
  EXPECT_EQ(reg.state(3), BreakerState::closed);
  // ...but real connectivity faults do.
  reg.record(3, Errc::unreachable, 10.0);
  reg.record(3, Errc::timeout, 10.1);
  EXPECT_EQ(reg.state(3), BreakerState::open);
  EXPECT_EQ(reg.opens(), 1u);
  // Application-level answers close it again after the cooldown trial.
  EXPECT_TRUE(reg.allow(3, 11.2));
  reg.record(3, Errc::not_found, 11.3);
  EXPECT_EQ(reg.state(3), BreakerState::closed);
}

// --- end-to-end: breaker + hedging on the client path -----------------------

struct Rig {
  sim::Simulator sim;
  cluster::Cluster cl;
  FileSystem fs;

  explicit Rig(FileSystemConfig cfg, std::size_t nodes = 4)
      : cl(sim, nodes), fs(cl, std::move(cfg)) {}

  static FileSystemConfig replicated_config() {
    FileSystemConfig cfg;
    cfg.own_nodes = {0, 1, 2, 3};
    cfg.own_store_capacity = 4 * units::GiB;
    cfg.stripe_size = 1 * units::MiB;
    cfg.redundancy = RedundancyMode::replicated;
    cfg.copies = 2;
    return cfg;
  }

  template <typename F>
  void run(F&& body) {
    bool finished = false;
    sim.spawn([](Rig& r, F body_fn, bool& done) -> sim::Task<> {
      co_await body_fn(r);
      done = true;
    }(*this, std::forward<F>(body), finished));
    sim.run();
    ASSERT_TRUE(finished) << "test coroutine did not finish";
  }
};

TEST(ClientHealth, BreakerOpensOnPartitionAndRecoversAfterHeal) {
  Rig rig(Rig::replicated_config());
  rig.fs.set_resilience_tuning({/*threshold=*/2, /*cooldown=*/0.5},
                               /*hedge_quantile=*/0.0);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    for (int i = 0; i < 8; ++i) {
      CO_ASSERT_TRUE(
          (co_await c.write_file(strformat("/f%d", i), 4 * units::MiB)).ok());
    }
    // Sever client <-> node 1. Requests fast-fail Errc::unreachable; after
    // two consecutive faults the breaker opens and later probes to node 1
    // are rejected locally instead of being issued at all.
    r.cl.fabric().cut_link(0, 1);
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < 8; ++i) {
        auto res = co_await c.read_file(strformat("/f%d", i));
        CO_ASSERT_TRUE(res.ok());  // the other replica serves every read
      }
    }
    EXPECT_EQ(r.fs.health().state(1), BreakerState::open);
    EXPECT_GE(r.fs.health().opens(), 1u);
    EXPECT_GT(r.fs.counters().breaker_rejections, 0u);
    EXPECT_GT(r.fs.counters().degraded_reads, 0u);

    // Heal, wait out the cooldown: the half-open trial succeeds and the
    // breaker closes again.
    r.cl.fabric().heal_link(0, 1);
    co_await r.sim.delay(1.0);
    for (int i = 0; i < 8; ++i) {
      CO_ASSERT_TRUE((co_await c.read_file(strformat("/f%d", i))).ok());
    }
    EXPECT_EQ(r.fs.health().state(1), BreakerState::closed);
  });
  // The partition never retired the (alive) node: no repairs ran.
  EXPECT_EQ(rig.fs.recovery().failures_handled, 0u);
}

TEST(ClientHealth, WritesRerouteAroundOpenBreaker) {
  Rig rig(Rig::replicated_config());
  rig.fs.set_resilience_tuning({/*threshold=*/2, /*cooldown=*/30.0},
                               /*hedge_quantile=*/0.0);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    // Open node 1's breaker up front by failing reads against it.
    r.cl.fabric().cut_link(0, 1);
    CO_ASSERT_TRUE((co_await c.write_file("/warm", 8 * units::MiB)).ok());
    for (int i = 0; i < 2 && r.fs.health().state(1) != BreakerState::open;
         ++i) {
      (void)co_await c.read_file("/warm");
    }
    CO_ASSERT_TRUE(r.fs.health().state(1) == BreakerState::open);

    // With the breaker open (30s cooldown outlives the test), writes whose
    // placement targets node 1 reroute to another live node instead of
    // burning an RPC on it.
    const auto rejections_before = r.fs.counters().breaker_rejections;
    for (int i = 0; i < 8; ++i) {
      CO_ASSERT_TRUE(
          (co_await c.write_file(strformat("/w%d", i), 4 * units::MiB)).ok());
    }
    EXPECT_GT(r.fs.counters().breaker_reroutes, 0u);
    // Rerouted writes are still fully replicated and readable.
    for (int i = 0; i < 8; ++i) {
      CO_ASSERT_TRUE((co_await c.read_file(strformat("/w%d", i))).ok());
    }
    (void)rejections_before;
  });
}

TEST(ClientHealth, HedgedReadWinsPastStalledPrimary) {
  Rig rig(Rig::replicated_config());
  // Hedge at the 90th percentile once 8 samples exist; breakers off.
  rig.fs.set_resilience_tuning({/*threshold=*/0, /*cooldown=*/1.0},
                               /*hedge_quantile=*/0.9, /*min_samples=*/8);
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    for (int i = 0; i < 4; ++i) {
      CO_ASSERT_TRUE(
          (co_await c.write_file(strformat("/f%d", i), 4 * units::MiB)).ok());
    }
    // Warm-up pass seeds the fs.read_stripe.latency histogram.
    for (int i = 0; i < 4; ++i) {
      CO_ASSERT_TRUE((co_await c.read_file(strformat("/f%d", i))).ok());
    }
    // Stall node 1 outright: any stripe whose primary replica lives there
    // hangs until the stall ends. The hedge timer fires at the latency
    // quantile, races the second replica, and the backup wins.
    const auto hedges_before = r.fs.counters().hedged_reads;
    const auto wins_before = r.fs.counters().hedge_wins;
    r.fs.server(1).stall_for(120.0);
    const SimTime start = r.sim.now();
    for (int i = 0; i < 4; ++i) {
      CO_ASSERT_TRUE((co_await c.read_file(strformat("/f%d", i))).ok());
    }
    EXPECT_GT(r.fs.counters().hedged_reads, hedges_before);
    EXPECT_GT(r.fs.counters().hedge_wins, wins_before);
    // The reads completed via the backup replica, not the 120s stall.
    EXPECT_LT(r.sim.now() - start, 60.0);
  });
}

TEST(ClientHealth, HedgingDisabledFiresNoSecondArm) {
  Rig rig(Rig::replicated_config());  // hedge_quantile stays 0
  rig.run([](Rig& r) -> sim::Task<> {
    Client c = r.fs.client(0);
    for (int i = 0; i < 4; ++i) {
      CO_ASSERT_TRUE(
          (co_await c.write_file(strformat("/f%d", i), 4 * units::MiB)).ok());
      CO_ASSERT_TRUE((co_await c.read_file(strformat("/f%d", i))).ok());
    }
  });
  EXPECT_EQ(rig.fs.counters().hedged_reads, 0u);
  EXPECT_EQ(rig.fs.counters().hedge_wins, 0u);
  EXPECT_EQ(rig.fs.health().opens(), 0u);
}

}  // namespace
}  // namespace memfss::fs
