// Multi-tenant QoS suite (DESIGN.md §12): token buckets, the tenant
// registry, deficit-weighted round-robin dispatch, the server's
// admission ladder (rate -> pressure -> lane), per-tenant memory
// accounting in the sharded store, drain-on-shutdown with queued
// multi-tenant ops, and a small end-to-end adversarial scenario.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "netio/client.hpp"
#include "rt/driver.hpp"
#include "rt/server.hpp"
#include "rt/tcp_server.hpp"
#include "rt/tenant_registry.hpp"
#include "rt/thread_pool.hpp"
#include "rt/token_bucket.hpp"
#include "worker_hold.hpp"

namespace memfss::rt {
namespace {

kvstore::Blob bytes_blob(std::string_view s) {
  return kvstore::Blob::materialized(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

kvstore::Blob sized_blob(std::size_t n) {
  return kvstore::Blob::materialized(std::vector<std::uint8_t>(n, 0xab));
}

// --- TokenBucket ----------------------------------------------------------

TEST(TokenBucket, TakesUpToBurstThenRefillsAtRate) {
  TokenBucket b(10.0, 5.0);  // 10 tokens/s, depth 5
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.try_take(0.0)) << i;
  EXPECT_FALSE(b.try_take(0.0));
  // One token refills every 0.1s.
  EXPECT_FALSE(b.try_take(0.05));
  EXPECT_TRUE(b.try_take(0.1));
  EXPECT_FALSE(b.try_take(0.1));
  // Idle long enough to refill past the burst: capped at 5, not 100.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.try_take(10.0)) << i;
  EXPECT_FALSE(b.try_take(10.0));
}

TEST(TokenBucket, DelayUntilPredictsNextAdmission) {
  TokenBucket b(10.0, 1.0);
  EXPECT_DOUBLE_EQ(b.delay_until(0.0), 0.0);
  EXPECT_TRUE(b.try_take(0.0));
  const double d = b.delay_until(0.0);
  EXPECT_GT(d, 0.0);
  EXPECT_FALSE(b.try_take(d * 0.5));
  EXPECT_TRUE(b.try_take(d));
}

TEST(TokenBucket, ZeroRateIsUnlimited) {
  TokenBucket b(0.0, 0.0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(b.try_take(0.0));
  EXPECT_DOUBLE_EQ(b.delay_until(0.0, 1e9), 0.0);
}

TEST(TokenBucket, RequestPastBurstIsNeverCovered) {
  // The raw bucket refuses an n it can never hold; the *registry*
  // clamps oversized payloads to one full bucket (tested below) so
  // they drain it instead of being unadmittable forever.
  TokenBucket b(100.0, 10.0);
  EXPECT_FALSE(b.try_take(0.0, 1000.0));
  EXPECT_TRUE(b.try_take(0.0, 10.0));
  // delay_until clamps the same way: it quotes the refill horizon for
  // a full bucket, not infinity.
  const double d = b.delay_until(0.0, 1000.0);
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 10.0 / 100.0 + 1e-9);
}

TEST(TokenBucket, StaleTimestampSeesTheCurrentFill) {
  // A caller whose clock read predates the last refill (it lost the race
  // to the lock) must see what try_take() would grant, not a deficit.
  TokenBucket b(10.0, 5.0);
  ASSERT_TRUE(b.try_take(1.0));  // 4 tokens left as of t = 1.0
  EXPECT_DOUBLE_EQ(b.available(0.5), 4.0);
  EXPECT_DOUBLE_EQ(b.delay_until(0.5), 0.0);
  EXPECT_TRUE(b.try_take(0.5));
  EXPECT_DOUBLE_EQ(b.available(1.0), 3.0);
}

TEST(TenantRegistry, OversizedPayloadCostsOneFullBucket) {
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "t";
  cfg.bytes_per_s = 100.0;
  cfg.bytes_burst = 50.0;
  const auto id = reg.register_tenant(cfg).value();
  // A payload 20x the burst still gets admitted (costing the whole
  // bucket) rather than being rejected forever.
  EXPECT_EQ(reg.admit(id, 1000, 0.0).code, Errc::ok);
  const auto shed = reg.admit(id, 1, 0.0);
  EXPECT_EQ(shed.code, Errc::overloaded);
  EXPECT_GT(shed.retry_after_s, 0.0);
}

// --- TenantRegistry -------------------------------------------------------

TEST(TenantRegistry, DefaultTenantIsUnlimitedTopPriority) {
  TenantRegistry reg;
  ASSERT_TRUE(reg.valid(0));
  EXPECT_EQ(reg.name(0), "default");
  EXPECT_EQ(reg.priority(0), kTopPriority);
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(reg.admit(0, 1 << 20, 0.0).code, Errc::ok);
}

TEST(TenantRegistry, RegisterHandsOutDenseIdsAndRejectsOverflow) {
  TenantRegistry reg(3);  // default + 2
  auto a = reg.register_tenant({.name = "a"});
  auto b = reg.register_tenant({.name = "b"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), 1u);
  EXPECT_EQ(b.value(), 2u);
  EXPECT_EQ(reg.register_tenant({.name = "c"}).code(),
            Errc::invalid_argument);
  EXPECT_FALSE(reg.valid(3));
  TenantConfig bad;
  bad.priority = kTopPriority + 1;
  EXPECT_EQ(TenantRegistry(8).register_tenant(bad).code(),
            Errc::invalid_argument);
}

// Each tenant's counters export as rt.tenant.<name>.<metric>, so a
// name must identify one slot: an empty or repeated name is refused.
TEST(TenantRegistry, RejectsEmptyAndDuplicateNames) {
  TenantRegistry reg(8);
  EXPECT_EQ(reg.register_tenant({.name = ""}).code(), Errc::invalid_argument);
  EXPECT_EQ(reg.register_tenant({.name = "default"}).code(),
            Errc::invalid_argument);
  ASSERT_TRUE(reg.register_tenant({.name = "a"}).ok());
  EXPECT_EQ(reg.register_tenant({.name = "a"}).code(),
            Errc::invalid_argument);
  EXPECT_EQ(reg.tenant_count(), 2u);
}

TEST(TenantRegistry, AdmitShedsOverRateWithRetryHint) {
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "t";
  cfg.ops_per_s = 10.0;
  cfg.ops_burst = 2.0;
  const auto id = reg.register_tenant(cfg).value();
  EXPECT_EQ(reg.admit(id, 0, 0.0).code, Errc::ok);
  EXPECT_EQ(reg.admit(id, 0, 0.0).code, Errc::ok);
  const auto shed = reg.admit(id, 0, 0.0);
  EXPECT_EQ(shed.code, Errc::overloaded);
  EXPECT_GT(shed.retry_after_s, 0.0);
  // Waiting out the hint admits again.
  EXPECT_EQ(reg.admit(id, 0, shed.retry_after_s).code, Errc::ok);
}

TEST(TenantRegistry, AdmitChecksBothBucketsAndReportsWorstHint) {
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "t";
  cfg.ops_per_s = 1000.0;   // effectively unconstrained here
  cfg.bytes_per_s = 100.0;  // the binding bucket
  cfg.bytes_burst = 100.0;
  const auto id = reg.register_tenant(cfg).value();
  EXPECT_EQ(reg.admit(id, 100, 0.0).code, Errc::ok);
  const auto shed = reg.admit(id, 100, 0.0);
  EXPECT_EQ(shed.code, Errc::overloaded);
  // The byte bucket needs a full second to refill 100 tokens.
  EXPECT_GT(shed.retry_after_s, 0.5);
  // A failed admit must not consume the other bucket: the op tokens
  // taken so far are exactly the two admit attempts... only successful
  // ones. After the hint, both buckets cover the op again.
  EXPECT_EQ(reg.admit(id, 100, shed.retry_after_s).code, Errc::ok);
}

TEST(TenantRegistry, AdmitWithStaleClockIsNotShed) {
  // Two workers read the clock, then take the tenant mutex in the
  // opposite order: the later stamp admits first. The earlier stamp
  // still finds tokens in the bucket and must be admitted too.
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "t";
  cfg.ops_per_s = 10.0;
  cfg.ops_burst = 5.0;
  const auto id = reg.register_tenant(cfg).value();
  ASSERT_EQ(reg.admit(id, 0, 1.0).code, Errc::ok);
  const auto late = reg.admit(id, 0, 0.5);
  EXPECT_EQ(late.code, Errc::ok);
  EXPECT_DOUBLE_EQ(late.retry_after_s, 0.0);
}

// Admission on a tenant with neither rate limit returns before the
// tenant lock; concurrent admits, of any payload and at any time stamp,
// all pass. A limited tenant sharing the registry and the threads still
// sheds exactly as before: with no refill between the stamps, exactly
// its burst is admitted, however the threads interleave.
TEST(TenantRegistry, ConcurrentAdmitsOnAnUnlimitedTenantAllPass) {
  constexpr int kThreads = 4, kAdmits = 5000;
  TenantRegistry reg;
  const auto open = reg.register_tenant({.name = "open"}).value();
  TenantConfig cfg;
  cfg.name = "limited";
  cfg.ops_per_s = 1e-6;  // no refill within the stamps used here
  cfg.ops_burst = 100.0;
  const auto limited = reg.register_tenant(cfg).value();
  std::atomic<int> refused{0}, admitted_limited{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAdmits; ++i) {
        const double now = 1e-3 * (i % 7) + t;  // stamps out of order too
        for (std::uint32_t id : {0u, open})
          if (reg.admit(id, static_cast<Bytes>(i) << 10, now).code != Errc::ok)
            refused.fetch_add(1);
        if (i < 100 && reg.admit(limited, 0, 0.0).code == Errc::ok)
          admitted_limited.fetch_add(1);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(refused.load(), 0);
  EXPECT_EQ(admitted_limited.load(), 100);
  const auto shed = reg.admit(limited, 0, 0.0);
  EXPECT_EQ(shed.code, Errc::overloaded);
  EXPECT_GT(shed.retry_after_s, 0.0);
}

TEST(TenantRegistry, MemoryQuotaChargesAndReleases) {
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "t";
  cfg.memory_quota = 100;
  const auto id = reg.register_tenant(cfg).value();
  EXPECT_TRUE(reg.try_charge_memory(id, 60));
  EXPECT_FALSE(reg.try_charge_memory(id, 50));  // 110 > 100
  EXPECT_TRUE(reg.try_charge_memory(id, 40));
  EXPECT_EQ(reg.memory_used(id), 100u);
  reg.release_memory(id, 100);
  EXPECT_EQ(reg.memory_used(id), 0u);
  EXPECT_EQ(reg.total_resident(), 0u);
}

// --- ThreadPool: per-tenant lanes + DWRR ----------------------------------

TEST(ThreadPoolLanes, LaneCapacityIsolatesTenants) {
  ThreadPool pool({1, 64});
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.try_post(0, 1, 1, 2, [&] {
    while (!release.load()) std::this_thread::yield();
  }));
  // Wait until the blocker is executing (out of the queue).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.queue_depth(0) > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  // Tenant 1's lane holds 2; the third post bounces...
  ASSERT_TRUE(pool.try_post(0, 1, 1, 2, [] {}));
  ASSERT_TRUE(pool.try_post(0, 1, 1, 2, [] {}));
  EXPECT_FALSE(pool.try_post(0, 1, 1, 2, [] {}));
  // ...while tenant 2 still gets in: the worker is nowhere near its
  // aggregate bound.
  EXPECT_TRUE(pool.try_post(0, 2, 1, 2, [] {}));
  EXPECT_EQ(pool.queue_depth(0, 1), 2u);
  EXPECT_EQ(pool.queue_depth(0, 2), 1u);
  release.store(true);
  pool.stop();
}

TEST(ThreadPoolLanes, DeficitRoundRobinHonorsWeights) {
  ThreadPool pool({1, 256});
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.try_post(0, 0, 1, 256, [&] {
    while (!release.load()) std::this_thread::yield();
  }));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.queue_depth(0) > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  // Two contending lanes, weights 3:1, queued while the worker is
  // blocked; the drain order must interleave ~3 of A per 1 of B rather
  // than emptying whichever lane was posted first.
  std::mutex mu;
  std::vector<char> order;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(pool.try_post(0, 1, 3, 64, [&] {
      std::lock_guard lk(mu);
      order.push_back('A');
    }));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.try_post(0, 2, 1, 64, [&] {
      std::lock_guard lk(mu);
      order.push_back('B');
    }));
  }
  release.store(true);
  pool.stop();
  ASSERT_EQ(order.size(), 40u);
  // After any prefix, lane A (weight 3) has run at most 3 more than
  // 3x lane B's count + its quantum; concretely: the first 8 jobs must
  // already contain both tenants (FIFO would run 8 A's), and every
  // B must appear before 3*(its index+2) A's.
  std::size_t b_seen = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t a_seen = i + 1 - (b_seen + (order[i] == 'B'));
    if (order[i] == 'B') ++b_seen;
    if (b_seen == 0) {
      ASSERT_LE(a_seen, 3u) << "lane B starved for " << i + 1 << " jobs";
    } else {
      ASSERT_LE(a_seen, 3 * (b_seen + 1))
          << "weight ratio violated at job " << i;
    }
  }
}

// --- RuntimeServer admission ladder ---------------------------------------

TEST(QosServer, RateLimitedTenantIsShedWithHintAndNoSeq) {
  ShardedStore store({4, 1 << 20, ""});
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "limited";
  cfg.ops_per_s = 1.0;
  cfg.ops_burst = 1.0;
  const auto id = reg.register_tenant(cfg).value();
  RuntimeServer::Options opt;
  opt.threads = 1;
  opt.queue_capacity = 64;
  opt.tenants = &reg;
  RuntimeServer server(store, opt);

  Op put{Op::Type::put, "k", bytes_blob("v"), id};
  auto first = server.submit("", std::move(put)).get();
  EXPECT_EQ(first.code, Errc::ok);

  Op put2{Op::Type::put, "k2", bytes_blob("v"), id};
  auto shed = server.submit("", std::move(put2)).get();
  EXPECT_EQ(shed.code, Errc::overloaded);
  EXPECT_GT(shed.retry_after_s, 0.0);
  EXPECT_FALSE(shed.seq.has_value());
  EXPECT_EQ(server.metrics().counter_value("rt.tenant.limited.overloaded"),
            1u);
}

// The same shed observed over the TCP serving path (DESIGN.md §13):
// the OVERLOADED frame carries the Errc and a nonzero retry-after hint
// in microseconds -- the QoS contract is not an in-process artifact.
TEST(QosServer, RateLimitShedSurvivesTheWire) {
  ShardedStore store({4, 1 << 20, ""});
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "limited";
  cfg.ops_per_s = 1.0;
  cfg.ops_burst = 1.0;
  const auto id = reg.register_tenant(cfg).value();
  RuntimeServer::Options opt;
  opt.threads = 1;
  opt.queue_capacity = 64;
  opt.tenants = &reg;
  RuntimeServer server(store, opt);
  TcpServer tcp(server, {});

  netio::NetClient c;
  ASSERT_TRUE(c.connect(tcp.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(10.0).ok());

  ASSERT_TRUE(c.send(netio::NetClient::make_put(1, id, "k", {1})).ok());
  auto first = c.recv();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().status, static_cast<std::uint8_t>(Errc::ok));

  ASSERT_TRUE(c.send(netio::NetClient::make_put(2, id, "k2", {1})).ok());
  auto shed = c.recv();
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.value().status,
            static_cast<std::uint8_t>(Errc::overloaded));
  EXPECT_GT(shed.value().retry_after_us, 0u);
  EXPECT_FALSE(shed.value().flags & netio::kFlagHasSeq);
  EXPECT_EQ(server.metrics().counter_value("rt.tenant.limited.overloaded"),
            1u);
}

TEST(QosServer, PressureShedsLowPriorityNeverTop) {
  ShardedStore store({1, 1 << 20, ""});
  TenantRegistry reg;
  TenantConfig low;
  low.name = "low";
  low.priority = 0;
  TenantConfig top;
  top.name = "top";
  top.priority = kTopPriority;
  const auto low_id = reg.register_tenant(low).value();
  const auto top_id = reg.register_tenant(top).value();

  RuntimeServer::Options opt;
  opt.threads = 1;
  opt.queue_capacity = 16;
  opt.service_time = std::chrono::milliseconds(5);
  opt.tenants = &reg;
  opt.degrade_at = 2.0;  // isolate the shed gate from degradation
  opt.shed_at = 0.25;    // 4 queued ops put the worker in the shed zone
  RuntimeServer server(store, opt);

  // Fill the single worker's queue with default-tenant ops (top
  // priority: never shed) to push occupancy past shed_at.
  std::vector<std::future<OpResult>> fill;
  for (int i = 0; i < 12; ++i)
    fill.push_back(server.submit("", {Op::Type::get, "k", {}, 0}));

  // With the queue deep, a best-effort tenant is shed by policy while a
  // top-priority tenant still gets through.
  std::size_t low_shed = 0, top_overloaded = 0;
  for (int i = 0; i < 8; ++i) {
    auto r_low = server.submit("", {Op::Type::get, "k", {}, low_id});
    auto r_top = server.submit("", {Op::Type::get, "k", {}, top_id});
    const auto rl = r_low.get();
    const auto rt = r_top.get();
    if (rl.code == Errc::overloaded) {
      ++low_shed;
      EXPECT_GT(rl.retry_after_s, 0.0);
    }
    if (rt.code == Errc::overloaded) ++top_overloaded;
  }
  for (auto& f : fill) f.get();
  EXPECT_GT(low_shed, 0u);
  EXPECT_EQ(top_overloaded, 0u);  // kTopPriority is never pressure-shed
}

TEST(QosServer, DegradedPathSkipsServiceTimeUnderLoad) {
  ShardedStore store({1, 1 << 20, ""});
  RuntimeServer::Options opt;
  opt.threads = 1;
  opt.queue_capacity = 64;
  opt.service_time = std::chrono::milliseconds(20);
  opt.degrade_at = 0.05;  // degrade almost immediately
  opt.shed_at = 2.0;      // never shed
  RuntimeServer server(store, opt);
  // 32 ops at 20ms each would take 640ms; with the cheap path kicking
  // in after the first few queued ops the batch finishes far faster.
  std::vector<Op> ops;
  for (int i = 0; i < 32; ++i)
    ops.push_back({Op::Type::get, "k" + std::to_string(i), {}, 0});
  const auto t0 = std::chrono::steady_clock::now();
  const auto rs = server.run_batch("", std::move(ops));
  const auto wall = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  for (const auto& r : rs) EXPECT_EQ(r.code, Errc::not_found);
  EXPECT_LT(wall, 0.5);
  EXPECT_GT(server.metrics().counter_value("rt.ops.degraded"), 0u);
}

// Gate 3's weighted fairness through the server at service_time 0:
// with the only worker held, two tenants queue ops with weights 3:1;
// once released, the worker interleaves about three of A per one of B
// instead of draining whichever tenant queued first.
TEST(QosServer, WeightedLanesInterleaveAtZeroServiceTime) {
  TenantRegistry reg;
  const auto a = reg.register_tenant({.name = "a", .weight = 3}).value();
  const auto b = reg.register_tenant({.name = "b", .weight = 1}).value();
  ShardedStore store({4, 1 << 20, ""});
  RuntimeServer::Options opt;
  opt.threads = 1;
  opt.queue_capacity = 256;
  opt.tenants = &reg;
  RuntimeServer server(store, opt);

  std::mutex mu;
  std::vector<char> order;
  std::atomic<int> left{40};
  auto record = [&](char who) {
    return [&, who](OpResult) {
      {
        std::lock_guard lk(mu);
        order.push_back(who);
      }
      left.fetch_sub(1);
      left.notify_all();
    };
  };
  {
    WorkerHold hold(server, "held");
    for (int i = 0; i < 30; ++i)
      server.submit_async("", {Op::Type::get, "a" + std::to_string(i), {}, a},
                          record('A'));
    for (int i = 0; i < 10; ++i)
      server.submit_async("", {Op::Type::get, "b" + std::to_string(i), {}, b},
                          record('B'));
    EXPECT_EQ(server.metrics().counter_value("rt.ops.rejected"), 0u);
  }
  for (int n = left.load(); n > 0; n = left.load()) left.wait(n);
  ASSERT_EQ(order.size(), 40u);
  std::size_t b_seen = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t a_seen = i + 1 - (b_seen + (order[i] == 'B'));
    if (order[i] == 'B') ++b_seen;
    if (b_seen == 0) {
      ASSERT_LE(a_seen, 3u) << "tenant b starved for " << i + 1 << " ops";
    } else {
      ASSERT_LE(a_seen, 3 * (b_seen + 1)) << "weight ratio violated at " << i;
    }
    ASSERT_LE(b_seen, a_seen / 3 + 1) << "tenant b overtook its weight at " << i;
  }
}

TEST(QosServer, InvalidTenantFailsFast) {
  ShardedStore store({1, 1 << 20, ""});
  RuntimeServer server(store, {1, 8, {}});
  auto r = server.submit("", {Op::Type::get, "k", {}, 77}).get();
  EXPECT_EQ(r.code, Errc::invalid_argument);
  EXPECT_FALSE(r.seq.has_value());
}

// --- Per-tenant memory accounting in ShardedStore -------------------------

TEST(QosAccounting, QuotaBindsPerTenantAndReleasesOnDelete) {
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "boxed";
  cfg.memory_quota = 3 * (64 + kvstore::Store::kPerKeyOverhead);
  const auto id = reg.register_tenant(cfg).value();
  ShardedStore store({2, 1 << 20, "", &reg});

  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(store.put("", "k" + std::to_string(i), sized_blob(64),
                          nullptr, id).ok());
  auto st = store.put("", "k3", sized_blob(64), nullptr, id);
  EXPECT_EQ(st.code(), Errc::out_of_memory);  // quota, not aggregate
  EXPECT_EQ(reg.memory_used(id), store.used());

  // Deleting releases the recorded owner's bytes; the quota frees up.
  ASSERT_TRUE(store.del("", "k0").ok());
  EXPECT_TRUE(store.put("", "k3", sized_blob(64), nullptr, id).ok());
  EXPECT_EQ(reg.memory_used(id), store.used());
  EXPECT_EQ(reg.total_resident(), store.used());
}

TEST(QosAccounting, CrossTenantOverwriteTransfersOwnership) {
  TenantRegistry reg;
  const auto a = reg.register_tenant({.name = "a"}).value();
  const auto b = reg.register_tenant({.name = "b"}).value();
  ShardedStore store({1, 1 << 20, "", &reg});

  ASSERT_TRUE(store.put("", "k", sized_blob(100), nullptr, a).ok());
  const Bytes held_a = reg.memory_used(a);
  EXPECT_GT(held_a, 0u);
  // Tenant b overwrites the key: a's bytes are released, b is charged.
  ASSERT_TRUE(store.put("", "k", sized_blob(200), nullptr, b).ok());
  EXPECT_EQ(reg.memory_used(a), 0u);
  EXPECT_EQ(reg.memory_used(b), store.used());
  // Deleting releases to the *current* owner.
  ASSERT_TRUE(store.del("", "k").ok());
  EXPECT_EQ(reg.memory_used(b), 0u);
  EXPECT_EQ(store.used(), 0u);
}

TEST(QosAccounting, SameOwnerOverwriteChargesOnlyGrowth) {
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "t";
  cfg.memory_quota = 150 + kvstore::Store::kPerKeyOverhead;
  const auto id = reg.register_tenant(cfg).value();
  ShardedStore store({1, 1 << 20, "", &reg});

  ASSERT_TRUE(store.put("", "k", sized_blob(100), nullptr, id).ok());
  // Overwriting 100 -> 140 charges the 40-byte growth, not a fresh 140
  // (which would exceed the quota).
  ASSERT_TRUE(store.put("", "k", sized_blob(140), nullptr, id).ok());
  EXPECT_EQ(reg.memory_used(id), store.used());
  // Shrinking releases the slack.
  ASSERT_TRUE(store.put("", "k", sized_blob(10), nullptr, id).ok());
  EXPECT_EQ(reg.memory_used(id), store.used());
  EXPECT_EQ(store.used(), 10 + kvstore::Store::kPerKeyOverhead);
}

TEST(QosAccounting, EvictAndClearShardReleaseEachOwner) {
  TenantRegistry reg;
  const auto a = reg.register_tenant({.name = "a"}).value();
  const auto b = reg.register_tenant({.name = "b"}).value();
  ShardedStore store({1, 1 << 20, "", &reg});
  constexpr Bytes kOv = kvstore::Store::kPerKeyOverhead;

  ASSERT_TRUE(store.put("", "a1", sized_blob(100), nullptr, a).ok());
  ASSERT_TRUE(store.put("", "a2", sized_blob(30), nullptr, a).ok());
  ASSERT_TRUE(store.put("", "b1", sized_blob(200), nullptr, b).ok());
  ASSERT_TRUE(store.put("", "b2", sized_blob(7), nullptr, b).ok());
  EXPECT_EQ(reg.memory_used(a), 130 + 2 * kOv);
  EXPECT_EQ(reg.memory_used(b), 207 + 2 * kOv);
  EXPECT_EQ(reg.total_resident(), store.used());

  // Evicting releases exactly the evicted key's charge to its owner.
  ASSERT_TRUE(store.evict("b1").has_value());
  EXPECT_EQ(reg.memory_used(a), 130 + 2 * kOv);
  EXPECT_EQ(reg.memory_used(b), 7 + kOv);
  EXPECT_EQ(reg.total_resident(), store.used());
  EXPECT_FALSE(store.evict("b1").has_value());
  EXPECT_EQ(reg.memory_used(b), 7 + kOv);

  // Clearing the shard releases every remaining owner's share.
  EXPECT_EQ(store.clear_shard(0), 137 + 3 * kOv);
  EXPECT_EQ(reg.memory_used(a), 0u);
  EXPECT_EQ(reg.memory_used(b), 0u);
  EXPECT_EQ(store.used(), 0u);
  EXPECT_EQ(reg.total_resident(), store.used());
}

TEST(QosAccounting, CrossTenantOverwriteRefusedByQuotaChangesNothing) {
  TenantRegistry reg;
  const auto a = reg.register_tenant({.name = "a"}).value();
  TenantConfig cfg;
  cfg.name = "b";
  cfg.memory_quota = 150 + kvstore::Store::kPerKeyOverhead;
  const auto b = reg.register_tenant(cfg).value();
  ShardedStore store({1, 1 << 20, "", &reg});

  ASSERT_TRUE(store.put("", "k", bytes_blob("abc"), nullptr, a).ok());
  const Bytes held_a = reg.memory_used(a), used = store.used();
  // b would own the key outright, so it is charged the full 200 bytes,
  // not the growth: the quota refuses, and a keeps the key.
  EXPECT_EQ(store.put("", "k", sized_blob(200), nullptr, b).code(),
            Errc::out_of_memory);
  EXPECT_EQ(reg.memory_used(a), held_a);
  EXPECT_EQ(reg.memory_used(b), 0u);
  EXPECT_EQ(store.used(), used);
  auto got = store.get("", "k");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value() == bytes_blob("abc"));
  EXPECT_EQ(reg.total_resident(), store.used());
}

TEST(QosAccounting, AggregateCapRefusalRollsBackTenantCharge) {
  TenantRegistry reg;
  const auto a = reg.register_tenant({.name = "a"}).value();
  const auto b = reg.register_tenant({.name = "b"}).value();
  constexpr Bytes kOv = kvstore::Store::kPerKeyOverhead;
  ShardedStore store({2, 2 * (100 + kOv), "", &reg});

  ASSERT_TRUE(store.put("", "k1", sized_blob(100), nullptr, a).ok());
  ASSERT_TRUE(store.put("", "k2", sized_blob(50), nullptr, b).ok());
  // A fresh key past the aggregate cap: b's charge is taken, then undone.
  EXPECT_EQ(store.put("", "k3", sized_blob(100), nullptr, b).code(),
            Errc::out_of_memory);
  EXPECT_EQ(reg.memory_used(b), 50 + kOv);
  // So is a growing overwrite by the key's own tenant.
  EXPECT_EQ(store.put("", "k2", sized_blob(120), nullptr, b).code(),
            Errc::out_of_memory);
  EXPECT_EQ(reg.memory_used(b), 50 + kOv);
  EXPECT_EQ(reg.memory_used(a), 100 + kOv);
  EXPECT_EQ(store.used(), 150 + 2 * kOv);
  EXPECT_EQ(reg.total_resident(), store.used());
}

TEST(QosAccounting, ConcurrentMixedTenantsSumToAggregateAtQuiesce) {
  TenantRegistry reg;
  std::vector<std::uint32_t> ids;
  for (int t = 0; t < 4; ++t) {
    TenantConfig cfg;
    cfg.name = "t" + std::to_string(t);
    cfg.memory_quota = 256 * 1024;
    ids.push_back(reg.register_tenant(cfg).value());
  }
  ShardedStore store({8, 1 << 20, "", &reg});

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const auto id = ids[t];
      for (int i = 0; i < 400; ++i) {
        const std::string key = "t" + std::to_string(t % 2) +  // shared keys
                                ":k" + std::to_string(i % 37);
        if (i % 5 == 4) {
          store.del("", key);
        } else {
          store.put("", key, sized_blob(16 + (i % 64)), nullptr, id);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  Bytes shard_sum = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s)
    shard_sum += store.shard_recomputed_used(s);
  EXPECT_EQ(store.used(), shard_sum);
  EXPECT_EQ(reg.total_resident(), store.used());
  EXPECT_LE(store.used(), store.capacity());
}

// --- Shutdown with queued multi-tenant ops --------------------------------

TEST(QosShutdown, QueuedOpsFromEveryTenantResolveOnShutdown) {
  TenantRegistry reg;
  std::vector<std::uint32_t> ids{0};
  for (int t = 0; t < 3; ++t) {
    TenantConfig cfg;
    cfg.name = "t" + std::to_string(t);
    cfg.weight = static_cast<std::uint32_t>(t + 1);
    ids.push_back(reg.register_tenant(cfg).value());
  }
  ShardedStore store({4, 1 << 20, ""});
  RuntimeServer::Options opt;
  opt.threads = 2;
  opt.queue_capacity = 512;
  opt.service_time = std::chrono::microseconds(200);
  opt.tenants = &reg;
  RuntimeServer server(store, opt);

  // Queue a pile of ops across all tenants, then shut down while most
  // are still pending: every future must still resolve (drain
  // semantics), with every admitted op executed, none lost.
  std::vector<std::future<OpResult>> futs;
  for (int i = 0; i < 200; ++i) {
    Op op;
    op.type = i % 3 == 0 ? Op::Type::put : Op::Type::get;
    op.key = "k" + std::to_string(i % 17);
    if (op.type == Op::Type::put) op.value = bytes_blob("v");
    op.tenant = ids[i % ids.size()];
    futs.push_back(server.submit("", std::move(op)));
  }
  server.shutdown();

  std::size_t executed = 0, shed = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const auto r = f.get();
    switch (r.code) {
      case Errc::ok:
      case Errc::not_found:
        ++executed;
        EXPECT_TRUE(r.seq.has_value());
        break;
      case Errc::rejected:
      case Errc::overloaded:
        ++shed;
        EXPECT_FALSE(r.seq.has_value());
        break;
      default:
        FAIL() << "unexpected code " << errc_name(r.code);
    }
  }
  EXPECT_EQ(executed + shed, futs.size());
  EXPECT_GT(executed, 0u);
  // Post-shutdown submissions are rejected, not lost.
  auto late = server.submit("", {Op::Type::get, "k", {}, 0}).get();
  EXPECT_EQ(late.code, Errc::rejected);
}

// --- End-to-end adversarial scenario (small) ------------------------------

TEST(QosScenario, AbuserIsShedAndAccountingHolds) {
  DriverOptions opt = qos_options(2, 7);
  // Shrink to test size: a few hundred ops per tenant.
  for (auto& t : opt.tenants) {
    t.ops_per_thread = t.abusive ? 400 : 150;
    if (!t.abusive) t.pace_us = 300;
  }
  opt.service_time_us = 100;
  const auto run = run_driver(opt);
  EXPECT_TRUE(run.accounting_ok) << run.accounting_msg;
  ASSERT_EQ(run.tenants.size(), opt.tenants.size());
  for (std::size_t i = 0; i < run.tenants.size(); ++i) {
    const auto& tr = run.tenants[i];
    EXPECT_EQ(tr.submitted, tr.ok() + tr.not_found + tr.rejected +
                                tr.overloaded + tr.errors)
        << tr.name;
    EXPECT_EQ(tr.errors, 0u) << tr.name;
    EXPECT_EQ(static_cast<std::uint64_t>(tr.latency.count),
              tr.ok() + tr.not_found)
        << tr.name;  // shed ops stay out of the histogram
  }
  // The abuser offered far past its ops/s bucket: most of its traffic
  // is policy-shed with hints, not queue-full noise.
  const auto& abuser = run.tenants.back();
  EXPECT_GT(abuser.overloaded, abuser.submitted / 2) << abuser.name;
  EXPECT_GT(abuser.retry_after_hints, 0u);
  EXPECT_GE(abuser.overloaded, abuser.rejected);
  // Small tenants ran under quota: nothing shed by rate.
  for (std::size_t i = 0; i + 1 < run.tenants.size(); ++i)
    EXPECT_EQ(run.tenants[i].errors, 0u);
}

}  // namespace
}  // namespace memfss::rt
