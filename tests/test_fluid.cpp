#include "sim/fluid.hpp"

#include <gtest/gtest.h>

namespace memfss::sim {
namespace {

TEST(Fluid, SingleJobUsesFullCapacity) {
  Simulator sim;
  FluidResource res(sim, 10.0);
  SimTime done = -1;
  sim.spawn([](Simulator& s, FluidResource& r, SimTime& d) -> Task<> {
    co_await r.consume(100.0);  // 100 units at 10/s
    d = s.now();
  }(sim, res, done));
  sim.run();
  EXPECT_NEAR(done, 10.0, 1e-9);
}

TEST(Fluid, PerJobCapBinds) {
  Simulator sim;
  FluidResource res(sim, 10.0);
  SimTime done = -1;
  sim.spawn([](Simulator& s, FluidResource& r, SimTime& d) -> Task<> {
    co_await r.consume(10.0, 2.0);  // capped at 2/s despite free capacity
    d = s.now();
  }(sim, res, done));
  sim.run();
  EXPECT_NEAR(done, 5.0, 1e-9);
}

TEST(Fluid, EqualSharing) {
  Simulator sim;
  FluidResource res(sim, 10.0);
  std::vector<SimTime> done(2, -1);
  auto job = [](Simulator& s, FluidResource& r, SimTime& d) -> Task<> {
    co_await r.consume(50.0);
    d = s.now();
  };
  sim.spawn(job(sim, res, done[0]));
  sim.spawn(job(sim, res, done[1]));
  sim.run();
  // Both share 5/s -> both finish at 10s.
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[1], 10.0, 1e-9);
}

TEST(Fluid, DepartureSpeedsUpSurvivor) {
  Simulator sim;
  FluidResource res(sim, 10.0);
  SimTime small_done = -1, big_done = -1;
  sim.spawn([](Simulator& s, FluidResource& r, SimTime& d) -> Task<> {
    co_await r.consume(10.0);  // shares 5/s -> done at 2s
    d = s.now();
  }(sim, res, small_done));
  sim.spawn([](Simulator& s, FluidResource& r, SimTime& d) -> Task<> {
    co_await r.consume(50.0);  // 10 units by t=2 (5/s), then 40 at 10/s
    d = s.now();
  }(sim, res, big_done));
  sim.run();
  EXPECT_NEAR(small_done, 2.0, 1e-9);
  EXPECT_NEAR(big_done, 6.0, 1e-9);
}

TEST(Fluid, CappedJobLeavesRestToOthers) {
  Simulator sim;
  FluidResource res(sim, 10.0);
  SimTime capped_done = -1, greedy_done = -1;
  sim.spawn([](Simulator& s, FluidResource& r, SimTime& d) -> Task<> {
    co_await r.consume(10.0, 2.0);  // 2/s cap -> 5s
    d = s.now();
  }(sim, res, capped_done));
  sim.spawn([](Simulator& s, FluidResource& r, SimTime& d) -> Task<> {
    co_await r.consume(50.0);  // gets 8/s while the capped job runs
    d = s.now();
  }(sim, res, greedy_done));
  sim.run();
  EXPECT_NEAR(capped_done, 5.0, 1e-9);
  // 40 units by t=5 (8/s), remaining 10 at 10/s -> 6s.
  EXPECT_NEAR(greedy_done, 6.0, 1e-9);
}

TEST(Fluid, LateArrivalReshares) {
  Simulator sim;
  FluidResource res(sim, 10.0);
  SimTime first_done = -1;
  sim.spawn([](Simulator& s, FluidResource& r, SimTime& d) -> Task<> {
    co_await r.consume(100.0);
    d = s.now();
  }(sim, res, first_done));
  sim.spawn([](Simulator& s, FluidResource& r) -> Task<> {
    co_await s.delay(5.0);
    co_await r.consume(25.0);  // arrives at t=5, shares 5/s -> done t=10
  }(sim, res));
  sim.run();
  // First: 50 units by t=5, then 5/s until the newcomer leaves at t=10
  // (25 more), remaining 25 at 10/s -> t=12.5.
  EXPECT_NEAR(first_done, 12.5, 1e-9);
}

TEST(Fluid, ZeroWorkCompletesInstantly) {
  Simulator sim;
  FluidResource res(sim, 1.0);
  bool done = false;
  sim.spawn([](FluidResource& r, bool& d) -> Task<> {
    co_await r.consume(0.0);
    d = true;
  }(res, done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0.0);
}

// A job this small finishes inside consume() itself; a later job still
// runs at full capacity.
TEST(Fluid, WorkWithinEpsilonCompletesInstantly) {
  Simulator sim;
  FluidResource res(sim, 1.0);
  SimTime tiny_done = -1, next_done = -1;
  sim.spawn([](Simulator& s, FluidResource& r, SimTime& t,
               SimTime& n) -> Task<> {
    co_await r.consume(5e-10);
    t = s.now();
    co_await r.consume(2.0);
    n = s.now();
  }(sim, res, tiny_done, next_done));
  sim.run();
  EXPECT_EQ(tiny_done, 0.0);
  EXPECT_NEAR(next_done, 2.0, 1e-9);
}

TEST(Fluid, CapacityChangeTakesEffect) {
  Simulator sim;
  FluidResource res(sim, 10.0);
  SimTime done = -1;
  sim.spawn([](Simulator& s, FluidResource& r, SimTime& d) -> Task<> {
    co_await r.consume(100.0);
    d = s.now();
  }(sim, res, done));
  sim.schedule(5.0, [&] { res.set_capacity(5.0); });
  sim.run();
  // 50 units by t=5 at 10/s, remaining 50 at 5/s -> 15s.
  EXPECT_NEAR(done, 15.0, 1e-9);
}

TEST(Fluid, UtilizationAccounting) {
  Simulator sim;
  FluidResource res(sim, 10.0);
  sim.spawn([](FluidResource& r) -> Task<> {
    co_await r.consume(50.0, 5.0);  // 50% utilization for 10s
  }(res));
  sim.run();
  EXPECT_EQ(sim.now(), 10.0);
  EXPECT_NEAR(res.average_utilization(10.0), 0.5, 1e-9);
  EXPECT_NEAR(res.peak_utilization(), 0.5, 1e-9);
  EXPECT_EQ(res.active_jobs(), 0u);
  EXPECT_EQ(res.allocated_rate(), 0.0);
}

TEST(Fluid, ManyJobsAllComplete) {
  Simulator sim;
  FluidResource res(sim, 7.0);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    sim.spawn([](FluidResource& r, int& c, double w) -> Task<> {
      co_await r.consume(w);
      ++c;
    }(res, completed, 1.0 + i * 0.1));
  }
  sim.run();
  EXPECT_EQ(completed, 100);
}

}  // namespace
}  // namespace memfss::sim
