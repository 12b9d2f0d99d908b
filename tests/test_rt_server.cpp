#include "rt/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "rt/thread_pool.hpp"
#include "worker_hold.hpp"

namespace memfss::rt {
namespace {

kvstore::Blob bytes_blob(std::string_view s) {
  return kvstore::Blob::materialized(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsJobsOnEveryWorker) {
  ThreadPool pool({4, 64});
  std::atomic<int> ran{0};
  for (std::size_t w = 0; w < pool.size(); ++w)
    for (int i = 0; i < 10; ++i)
      ASSERT_TRUE(pool.try_post(w, [&] { ran.fetch_add(1); }));
  pool.stop();  // drains before joining
  EXPECT_EQ(ran.load(), 40);
}

TEST(ThreadPool, TryPostFailsWhenQueueFull) {
  ThreadPool pool({1, 2});
  std::atomic<bool> release{false};
  // Block the single worker so posts pile up in the queue.
  ASSERT_TRUE(pool.try_post(0, [&] {
    while (!release.load()) std::this_thread::yield();
  }));
  // Give the worker a moment to dequeue the blocker; then exactly
  // `queue_capacity` more jobs fit.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (pool.queue_depth(0) > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_TRUE(pool.try_post(0, [] {}));
  ASSERT_TRUE(pool.try_post(0, [] {}));
  EXPECT_FALSE(pool.try_post(0, [] {}));
  release.store(true);
  pool.stop();
}

TEST(ThreadPool, StopDrainsQueuedJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool({2, 128});
    for (int i = 0; i < 100; ++i)
      ASSERT_TRUE(pool.try_post(i, [&] { ran.fetch_add(1); }));
  }  // destructor stops and drains
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, RejectsAfterStop) {
  ThreadPool pool({1, 8});
  pool.stop();
  EXPECT_FALSE(pool.try_post(0, [] {}));
}

// try_run_inline claims an idle worker for the caller: `fn` runs on the
// calling thread. A running or a queued job, or a stopped pool, refuses
// the claim.
TEST(ThreadPool, InlineClaimRunsOnTheCallerOnlyWhenTheWorkerIsIdle) {
  ThreadPool pool({1, 8});
  std::thread::id ran_on;
  ASSERT_TRUE(pool.try_run_inline(0, [&] { ran_on = std::this_thread::get_id(); }));
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  std::atomic<bool> started{false}, release{false};
  ASSERT_TRUE(pool.try_post(0, [&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  }));
  while (!started.load()) std::this_thread::yield();
  ASSERT_EQ(pool.queue_depth(0), 0u);
  bool ran = false;
  EXPECT_FALSE(pool.try_run_inline(0, [&] { ran = true; }));  // running
  ASSERT_TRUE(pool.try_post(0, [] {}));
  release.store(true);
  pool.stop();
  EXPECT_FALSE(pool.try_run_inline(0, [&] { ran = true; }));  // stopped
  EXPECT_FALSE(ran);
}

// While a claim runs, the worker's own thread waits it out: a job posted
// meanwhile runs only after the claim returns, and a second claim fails.
TEST(ThreadPool, JobPostedDuringAClaimRunsAfterIt) {
  ThreadPool pool({1, 8});
  std::mutex mu;
  std::vector<int> order;
  std::atomic<bool> posted_ran{false};
  ASSERT_TRUE(pool.try_run_inline(0, [&] {
    ASSERT_TRUE(pool.try_post(0, [&] {
      std::lock_guard lk(mu);
      order.push_back(2);
      posted_ran.store(true);
    }));
    EXPECT_FALSE(pool.try_run_inline(0, [] {}));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(posted_ran.load());
    std::lock_guard lk(mu);
    order.push_back(1);
  }));
  pool.stop();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- RuntimeServer --------------------------------------------------------

TEST(RuntimeServer, PutGetDelEndToEnd) {
  ShardedStore store({8, 1 << 20, "tok"});
  RuntimeServer server(store, {2, 64, {}});

  auto put = server.submit("tok", {Op::Type::put, "k", bytes_blob("v")}).get();
  EXPECT_EQ(put.code, Errc::ok);
  ASSERT_TRUE(put.seq.has_value());
  EXPECT_GT(*put.seq, 0u);

  auto got = server.submit("tok", {Op::Type::get, "k", {}}).get();
  ASSERT_EQ(got.code, Errc::ok);
  EXPECT_EQ(got.value, bytes_blob("v"));
  EXPECT_GE(got.latency_s, 0.0);

  auto ex = server.submit("tok", {Op::Type::exists, "k", {}}).get();
  EXPECT_EQ(ex.code, Errc::ok);
  EXPECT_TRUE(ex.found);

  auto del = server.submit("tok", {Op::Type::del, "k", {}}).get();
  EXPECT_EQ(del.code, Errc::ok);
  EXPECT_EQ(server.submit("tok", {Op::Type::get, "k", {}}).get().code,
            Errc::not_found);
}

TEST(RuntimeServer, AuthVerbChecksToken) {
  ShardedStore store({4, 1 << 20, "tok"});
  RuntimeServer server(store, {2, 64, {}});
  EXPECT_EQ(server.submit("tok", {Op::Type::auth, "", {}}).get().code,
            Errc::ok);
  EXPECT_EQ(server.submit("oops", {Op::Type::auth, "", {}}).get().code,
            Errc::permission);
  EXPECT_EQ(server.submit("oops", {Op::Type::put, "k", bytes_blob("v")})
                .get().code,
            Errc::permission);
}

TEST(RuntimeServer, BatchPreservesInputOrder) {
  ShardedStore store({8, 1 << 20, ""});
  RuntimeServer server(store, {4, 256, {}});
  std::vector<Op> ops;
  for (int i = 0; i < 32; ++i)
    ops.push_back({Op::Type::put, "k" + std::to_string(i),
                   bytes_blob(std::to_string(i))});
  for (int i = 0; i < 32; ++i)
    ops.push_back({Op::Type::get, "k" + std::to_string(i), {}});
  auto results = server.run_batch("", std::move(ops));
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(results[i].code, Errc::ok) << i;
    ASSERT_EQ(results[32 + i].code, Errc::ok) << i;
    EXPECT_EQ(results[32 + i].value, bytes_blob(std::to_string(i))) << i;
  }
}

TEST(RuntimeServer, BackpressureRejectsWhenQueueFull) {
  ShardedStore store({1, 1 << 20, ""});  // one shard => one worker queue
  RuntimeServer server(store, {1, 4, std::chrono::microseconds(2000)});
  std::vector<std::future<OpResult>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(server.submit("", {Op::Type::put, "k" + std::to_string(i),
                                      bytes_blob("v")}));
  std::size_t rejected = 0, ok = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    if (r.code == Errc::rejected) {
      ++rejected;
      EXPECT_FALSE(r.seq.has_value());  // never reached a shard
    } else if (r.code == Errc::ok) {
      ++ok;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(server.metrics().counter_value("rt.ops.rejected"), rejected);
}

TEST(RuntimeServer, MetricsFeedTheSink) {
  ShardedStore store({4, 1 << 20, ""});
  RuntimeServer server(store, {2, 64, {}});
  std::vector<Op> ops;
  for (int i = 0; i < 16; ++i)
    ops.push_back({Op::Type::put, "k" + std::to_string(i), bytes_blob("v")});
  for (int i = 0; i < 16; ++i)
    ops.push_back({Op::Type::get, "k" + std::to_string(i), {}});
  (void)server.run_batch("", std::move(ops));
  EXPECT_EQ(server.metrics().counter_value("rt.ops.put"), 16u);
  EXPECT_EQ(server.metrics().counter_value("rt.ops.get"), 16u);
  const auto lat = server.metrics().histogram_summary("rt.op.latency_s");
  EXPECT_EQ(lat.count, 32u);
  EXPECT_GT(lat.max, 0.0);
  // Snapshot carries the queue-depth gauge too.
  const auto snap = server.metrics().snapshot();
  EXPECT_NE(snap.find("rt.queue.depth"), nullptr);
}

// Submitters, sheds and a reader racing snapshot(): once the server is
// quiescent every counter is exact and every fixed row appears once.
TEST(RuntimeServer, ConcurrentSnapshotsLeaveExactTotals) {
  TenantRegistry reg;
  TenantConfig limited;
  limited.name = "limited";
  limited.ops_per_s = 1.0;  // its burst is admitted, the rest overloaded
  limited.ops_burst = 200.0;
  const std::uint32_t tids[] = {reg.register_tenant({.name = "open"}).value(),
                                reg.register_tenant(limited).value()};
  ShardedStore store({4, 1 << 20, ""});
  RuntimeServer::Options opt;
  opt.threads = 2;
  opt.queue_capacity = 12;  // lanes of 4: some ops are rejected
  opt.service_time = std::chrono::microseconds(20);
  opt.tenants = &reg;
  RuntimeServer server(store, opt);

  constexpr int kThreads = 4, kOpsPerThread = 1500;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last_rejected = 0;
    while (!done.load()) {
      EXPECT_FALSE(server.metrics().snapshot().rows.empty());
      const std::uint64_t r = server.metrics().counter_value("rt.ops.rejected");
      EXPECT_GE(r, last_rejected);
      last_rejected = r;
    }
  });
  std::atomic<std::uint64_t> shed{0}, executed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      // Windows of four in flight: enough to fill the small lanes now
      // and then, not so many that nearly every op is shed.
      std::vector<std::future<OpResult>> futs;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto type = static_cast<Op::Type>(i % 5);
        futs.push_back(server.submit(
            "", {type, "k" + std::to_string((t * 7 + i) % 64),
                 type == Op::Type::put ? bytes_blob("value") : kvstore::Blob{},
                 tids[i % 4 == 3]}));
        if (futs.size() < 4 && i + 1 < kOpsPerThread) continue;
        for (auto& f : futs) {
          const Errc code = f.get().code;
          (code == Errc::rejected || code == Errc::overloaded ? shed
                                                               : executed)
              .fetch_add(1);
        }
        futs.clear();
      }
    });
  for (auto& th : submitters) th.join();
  done.store(true);
  reader.join();

  const ServingMetrics& m = server.metrics();
  std::uint64_t outcomes = 0;
  for (const char* name :
       {"rt.ops.put", "rt.ops.get", "rt.ops.del", "rt.ops.exists",
        "rt.ops.auth", "rt.ops.failed", "rt.ops.rejected", "rt.ops.overloaded"})
    outcomes += m.counter_value(name);
  EXPECT_EQ(outcomes, std::uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(m.counter_value("rt.ops.rejected") +
                m.counter_value("rt.ops.overloaded"),
            shed.load());
  EXPECT_GT(m.counter_value("rt.ops.rejected"), 0u);
  EXPECT_GT(m.counter_value("rt.ops.overloaded"), 0u);
  const std::uint64_t tenant_ops = m.counter_value("rt.tenant.default.ops") +
                                   m.counter_value("rt.tenant.open.ops") +
                                   m.counter_value("rt.tenant.limited.ops");
  EXPECT_EQ(tenant_ops, executed.load());
  EXPECT_EQ(m.histogram_summary("rt.op.latency_s").count, executed.load());

  const auto snap = m.snapshot();
  std::vector<std::string> fixed(kCounterNames.begin(), kCounterNames.end());
  for (const char* name : {"rt.queue.depth", "rt.net.connections",
                           "rt.op.latency_s", "rt.net.frame_decode_s"})
    fixed.emplace_back(name);
  for (const char* tenant : {"default", "open", "limited"})
    for (const auto metric : kTenantCounterNames)
      fixed.push_back(std::string("rt.tenant.") + tenant + "." +
                      std::string(metric));
  for (const auto& name : fixed)
    EXPECT_EQ(std::count_if(snap.rows.begin(), snap.rows.end(),
                            [&](const auto& row) { return row.name == name; }),
              1)
        << name;
  EXPECT_EQ(snap.rows.size(), fixed.size());
}

// --- Run to completion on an idle worker ----------------------------------

/// Submit `op` and return the id of the thread its completion ran on.
std::thread::id completing_thread(RuntimeServer& server, Op op,
                                  Errc want = Errc::ok,
                                  bool allow_inline = true) {
  std::promise<std::thread::id> ran_on;
  auto fut = ran_on.get_future();
  server.submit_async(
      "", std::move(op),
      [&](OpResult r) {
        EXPECT_EQ(r.code, want);
        ran_on.set_value(std::this_thread::get_id());
      },
      allow_inline);
  return fut.get();
}

kvstore::Blob sized_blob(std::size_t n) {
  return kvstore::Blob::materialized(std::vector<std::uint8_t>(n, 0x3c));
}

// An eligible op on an idle worker completes on the submitter's thread
// before submit_async returns, and counts in rt.ops.inline.
TEST(RuntimeServerInline, EligibleOpOnAnIdleWorkerCompletesOnTheSubmitter) {
  ShardedStore store({4, 1 << 20, ""});
  RuntimeServer server(store, {1, 64});
  bool done = false;
  std::thread::id ran_on;
  server.submit_async("", {Op::Type::put, "k", bytes_blob("v")},
                      [&](OpResult r) {
                        EXPECT_EQ(r.code, Errc::ok);
                        EXPECT_TRUE(r.seq.has_value());
                        ran_on = std::this_thread::get_id();
                        done = true;
                      });
  EXPECT_TRUE(done);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(completing_thread(server, {Op::Type::get, "k", {}}),
            std::this_thread::get_id());
  const auto& m = server.metrics();
  EXPECT_EQ(m.counter_value("rt.ops.inline"), 2u);
  EXPECT_EQ(m.counter_value("rt.ops.put"), 1u);
  EXPECT_EQ(m.counter_value("rt.ops.get"), 1u);
  EXPECT_EQ(m.counter_value("rt.tenant.default.ops"), 2u);
  EXPECT_EQ(m.histogram_summary("rt.op.latency_s").count, 2u);
}

// The same op on a held worker queues behind the hold and completes on
// the worker's thread once it is released.
TEST(RuntimeServerInline, OpOnABusyWorkerPostsToTheWorker) {
  ShardedStore store({4, 1 << 20, ""});
  RuntimeServer server(store, {1, 64});
  std::promise<std::thread::id> ran_on;
  auto fut = ran_on.get_future();
  {
    WorkerHold hold(server, "held");  // runs inline on its helper thread
    server.submit_async("", {Op::Type::put, "k", bytes_blob("v")},
                        [&](OpResult r) {
                          EXPECT_EQ(r.code, Errc::ok);
                          ran_on.set_value(std::this_thread::get_id());
                        });
    EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout);
  }
  EXPECT_NE(fut.get(), std::this_thread::get_id());
  EXPECT_EQ(server.metrics().counter_value("rt.ops.inline"), 1u);
}

/// A registry holding the default tenant and an RS(4,2) tenant.
struct CodedTenant {
  TenantRegistry reg;
  std::uint32_t id = 0;
  CodedTenant() {
    TenantConfig cfg;
    cfg.name = "coded";
    cfg.rs = {4, 2};
    id = reg.register_tenant(cfg).value();
  }
};

// An in-process caller runs erasure-coded ops and large puts itself
// when the worker is idle; allow_inline = false and a modeled service
// time still send them to the worker. (The reactor keeps them off its
// own thread: RtTcp.ReactorKeepsCodedAndLargeOpsOffItself.)
TEST(RuntimeServerInline, CodedAndLargeOpsRunOnTheSubmitterWhenTheWorkerIsIdle) {
  CodedTenant t;
  ShardedStore store({8, 16 << 20, ""});
  RuntimeServer::Options opt;
  opt.threads = 1;
  opt.tenants = &t.reg;
  RuntimeServer server(store, opt);
  const auto me = std::this_thread::get_id();
  const auto value = sized_blob(64 * 1024);
  EXPECT_EQ(completing_thread(server, {Op::Type::put, "c", value, t.id}), me);
  std::optional<OpResult> got;
  server.submit_async("", {Op::Type::get, "c", {}, t.id},
                      [&](OpResult r) { got = std::move(r); });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code, Errc::ok);
  EXPECT_TRUE(got->value == value);
  EXPECT_EQ(completing_thread(server, {Op::Type::exists, "c", {}, t.id}), me);
  EXPECT_EQ(completing_thread(server, {Op::Type::put, "big",
                                       sized_blob(1 << 20)}),
            me);
  const auto& m = server.metrics();
  EXPECT_EQ(m.counter_value("rt.ops.inline"), 4u);
  EXPECT_EQ(m.counter_value("rt.ec.puts"), 1u);

  // Posted ops leave the worker busy a moment after their completion
  // fires, so these come last.
  EXPECT_NE(completing_thread(server, {Op::Type::get, "c", {}, t.id},
                              Errc::ok, /*allow_inline=*/false),
            me);
  EXPECT_NE(completing_thread(server, {Op::Type::put, "big",
                                       sized_blob(1 << 20)},
                              Errc::ok, /*allow_inline=*/false),
            me);
  EXPECT_EQ(m.counter_value("rt.ops.inline"), 4u);

  opt.service_time = std::chrono::microseconds(100);
  RuntimeServer slow(store, opt);
  EXPECT_NE(completing_thread(slow, {Op::Type::get, "c", {}, t.id}), me);
  EXPECT_NE(completing_thread(slow, {Op::Type::get, "big", {}}), me);
  EXPECT_EQ(slow.metrics().counter_value("rt.ops.inline"), 0u);
}

// Per-key order holds across inline and posted erasure-coded ops: one
// submitter drives an RS(4,2) tenant on 2 workers, at most 8 ops in
// flight, while a WorkerHold on one worker comes and goes so that its
// ops queue and post for a while and then run inline again. Every get
// returns the value a sequential model predicts at submit time.
TEST(RuntimeServerInline, CodedOpsKeepPerKeyOrderAcrossInlineAndPosted) {
  constexpr std::size_t kOps = 3000, kKeys = 32, kPool = 6;
  constexpr std::uint32_t kWindow = 8;
  CodedTenant t;
  ShardedStore::Options sopt{8, 64 << 20, ""};
  sopt.tenants = &t.reg;
  ShardedStore store(sopt);
  RuntimeServer::Options opt;
  opt.threads = 2;
  opt.tenants = &t.reg;
  RuntimeServer server(store, opt);
  std::vector<kvstore::Blob> pool;
  for (std::size_t i = 0; i < kPool; ++i)
    pool.push_back(sized_blob(8 * 1024 + 512 * i));
  std::string hold_key = "hold";
  while (store.shard_of(hold_key) % opt.threads != 0) hold_key += "+";

  std::vector<std::size_t> model(kKeys, kPool);  // kPool: never put
  std::atomic<std::uint32_t> inflight{0};
  std::atomic<std::uint64_t> wrong{0};
  std::optional<WorkerHold> hold;
  Rng rng(17);
  for (std::size_t i = 0; i < kOps; ++i) {
    // Hold worker 0 for the first part of every 100 ops; a full window
    // releases it, so its queued ops drain in order behind the hold.
    if (i % 100 == 0) hold.emplace(server, hold_key);
    for (auto n = inflight.load(); n >= kWindow; n = inflight.load()) {
      hold.reset();
      inflight.wait(n);
    }
    const std::size_t key = rng.uniform_u64(0, kKeys - 1);
    const bool get = rng.uniform_u64(0, 9) < 6;
    const std::size_t expect = model[key];
    Op op{get ? Op::Type::get : Op::Type::put, "key" + std::to_string(key),
          {}, t.id};
    if (!get) {
      model[key] = rng.uniform_u64(0, kPool - 1);
      op.value = pool[model[key]];
    }
    inflight.fetch_add(1);
    server.submit_async("", std::move(op),
                        [&, get, expect](OpResult r) {
                          const bool unset = get && expect == kPool;
                          bool ok = r.code == (unset ? Errc::not_found
                                                     : Errc::ok);
                          if (ok && get && !unset)
                            ok = r.value == pool[expect];
                          if (!ok) wrong.fetch_add(1);
                          inflight.fetch_sub(1);
                          inflight.notify_one();
                        });
  }
  hold.reset();
  for (auto n = inflight.load(); n > 0; n = inflight.load()) inflight.wait(n);
  EXPECT_EQ(wrong.load(), 0u);
  // Both paths ran. kOps coded ops and kOps / 100 holds executed, so
  // fewer than kOps inline means more than kOps / 100 posted: some coded
  // ops did.
  const std::uint64_t inlined =
      server.metrics().counter_value("rt.ops.inline");
  EXPECT_GT(inlined, 0u);
  EXPECT_LT(inlined, kOps);
}

TEST(RuntimeServer, ServiceTimeIsApplied) {
  ShardedStore store({1, 1 << 20, ""});
  RuntimeServer server(store, {1, 64, std::chrono::microseconds(5000)});
  const auto t0 = std::chrono::steady_clock::now();
  (void)server.submit("", {Op::Type::put, "k", bytes_blob("v")}).get();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 0.004);
}

}  // namespace
}  // namespace memfss::rt
