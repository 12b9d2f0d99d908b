#include "rt/server.hpp"

#include <algorithm>

#include "rt/ec.hpp"
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

namespace memfss::rt {

namespace {

using Clock = std::chrono::steady_clock;

// Writes ride an occupancy this much higher, so they shed a notch
// before reads.
constexpr double kWriteShedBias = 0.10;
// Scale of the retry-after hint a pressure-shed op gets (x 1..10).
constexpr double kRetryAfterBaseS = 0.005;

// An executed verb indexes its own rt.ops.<verb> counter.
static_assert(static_cast<Counter>(Op::Type::put) == Counter::put &&
              static_cast<Counter>(Op::Type::auth) == Counter::auth);

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

RuntimeServer::RuntimeServer(ShardedStore& store, Options opt)
    : store_(store),
      opt_(opt),
      owned_tenants_(opt.tenants ? nullptr : std::make_unique<TenantRegistry>()),
      tenants_(opt.tenants ? opt.tenants : owned_tenants_.get()),
      epoch_(Clock::now()),
      metrics_(*tenants_),
      pool_(ThreadPool::Options{opt.threads, opt.queue_capacity}) {}

RuntimeServer::~RuntimeServer() { shutdown(); }

OpResult RuntimeServer::execute(const std::string& token, Op& op) {
  OpResult r;
  std::uint64_t seq = 0;
  // Tenants with an RS(k, m) policy store through the erasure-coded
  // path (DESIGN.md §14): puts split into k+m sibling shards, gets
  // reassemble (reconstructing evicted/lost shards), del/exists cover
  // the whole stripe. Ghost blobs carry no bytes to code, so they pass
  // through plainly even for EC tenants.
  const erasure::ReedSolomon* rs = tenants_->rs_coder(op.tenant);
  switch (op.type) {
    case Op::Type::put:
      if (rs != nullptr && !op.value.is_ghost()) {
        r.code =
            ec::put(store_, token, op.key, op.value, *rs, &seq, op.tenant)
                .code();
        if (r.code == Errc::ok) metrics_.count(Counter::ec_puts);
      } else {
        r.code = store_.put(token, op.key, std::move(op.value), &seq,
                            op.tenant).code();
      }
      r.seq = seq;
      break;
    case Op::Type::get: {
      if (rs != nullptr) {
        bool reconstructed = false;
        auto got = ec::get(store_, token, op.key, &seq, &reconstructed, rs);
        r.code = got.code();
        if (got.ok()) r.value = std::move(got).value();
        if (reconstructed) metrics_.count(Counter::ec_reconstructed_gets);
      } else {
        auto got = store_.get(token, op.key, &seq);
        r.code = got.code();
        if (got.ok()) r.value = std::move(got).value();
      }
      r.seq = seq;
      break;
    }
    case Op::Type::del:
      r.code = rs != nullptr
                   ? ec::del(store_, token, op.key, &seq).code()
                   : store_.del(token, op.key, &seq).code();
      r.seq = seq;
      break;
    case Op::Type::exists: {
      auto e = rs != nullptr ? ec::exists(store_, token, op.key)
                             : store_.exists(token, op.key);
      r.code = e.code();
      if (e.ok()) r.found = e.value();
      break;
    }
    case Op::Type::auth:
      r.code = store_.check_token(token).code();
      break;
  }
  return r;
}

std::future<OpResult> RuntimeServer::submit(const std::string& token, Op op) {
  auto p = std::make_shared<std::promise<OpResult>>();
  auto fut = p->get_future();
  submit_async(token, std::move(op),
               [p](OpResult r) { p->set_value(std::move(r)); });
  return fut;
}

void RuntimeServer::finish(const std::string& token, Op& op,
                           Clock::time_point start, const Completion& done) {
  // execute() moves the put payload into the store; size it first.
  const Bytes put_bytes = op.type == Op::Type::put ? op.value.size() : 0;
  OpResult r = execute(token, op);
  r.latency_s = seconds_since(start);
  metrics_.count(r.code == Errc::ok ? static_cast<Counter>(op.type)
                                    : Counter::failed);
  metrics_.op_latency_s.add(r.latency_s);
  tenants_->count(op.tenant, TenantCounter::ops);
  if (put_bytes > 0) tenants_->count(op.tenant, TenantCounter::bytes, put_bytes);
  done(std::move(r));
}

void RuntimeServer::submit_async(const std::string& token, Op op,
                                 Completion done, bool allow_inline) {
  const auto start = Clock::now();
  const std::uint32_t tid = op.tenant;
  auto complete_now = [&](Errc code, double retry_after_s, Counter metric) {
    OpResult r;
    r.code = code;
    r.retry_after_s = retry_after_s;
    r.latency_s = seconds_since(start);
    metrics_.count(metric);
    if (metric != Counter::invalid_tenant)
      tenants_->count(tid, metric == Counter::overloaded
                               ? TenantCounter::overloaded
                               : TenantCounter::rejected);
    done(std::move(r));
  };

  if (!tenants_->valid(tid)) {
    complete_now(Errc::invalid_argument, 0.0, Counter::invalid_tenant);
    return;
  }

  // auth carries no key; route it like an empty key so it still flows
  // through a real worker (queued or claimed, like any other op).
  const std::size_t shard = store_.shard_of(op.key);
  const std::size_t worker = shard % pool_.size();

  // Gate 1: the tenant's own rate limits. Over-rate bursters are shed
  // here regardless of load, so they can never displace other tenants.
  const Bytes payload = op.type == Op::Type::put ? op.value.size() : 0;
  const auto adm = tenants_->admit(
      tid, payload, std::chrono::duration<double>(start - epoch_).count());
  if (adm.code != Errc::ok) {
    complete_now(Errc::overloaded, adm.retry_after_s, Counter::overloaded);
    return;
  }

  // Gate 2: pressure. Occupancy of the owning worker drives a shedding
  // ladder: past shed_at the minimum admitted priority rises linearly
  // from 1 (best-effort shed first) to kTopPriority (everyone but the
  // top class shed as the queue approaches full); writes ride a biased
  // occupancy so they shed a notch before reads. kTopPriority tenants
  // are never pressure-shed -- their lane bound (gate 3) is the only
  // thing that can turn them away.
  const std::size_t depth = pool_.queue_depth(worker);
  const double occupancy =
      static_cast<double>(depth) / static_cast<double>(pool_.capacity());
  const std::uint32_t prio = tenants_->priority(tid);
  if (occupancy >= opt_.shed_at && prio < kTopPriority) {
    const double biased = std::min(
        1.0, occupancy + (op_is_write(op.type) ? kWriteShedBias : 0.0));
    const double level = (biased - opt_.shed_at) / (1.0 - opt_.shed_at);
    const auto required = static_cast<std::uint32_t>(
        std::ceil(level * kTopPriority));
    if (prio < required) {
      // Hint scales with how deep into overload the worker is: a
      // lightly loaded queue suggests a short backoff, a nearly full
      // one up to 10x the base.
      complete_now(Errc::overloaded, kRetryAfterBaseS * (1.0 + 9.0 * level),
                   Counter::overloaded);
      return;
    }
  }

  // Run to completion here when no service time is modeled and the
  // worker is idle (server.hpp); the claim holds the worker meanwhile.
  if (allow_inline && opt_.service_time.count() == 0 &&
      pool_.try_run_inline(worker, [&] {
        metrics_.count(Counter::inline_ops);
        finish(token, op, start, done);
      }))
    return;

  // Gate 3: the tenant's lane in the owning worker. Each tenant gets a
  // weight-proportional share of the worker's aggregate capacity, so a
  // flooding tenant fills only its own lane.
  struct Work {
    Completion done;
    std::string token;
    Op op;
    Clock::time_point start;
    bool degraded = false;  ///< admitted past degrade_at: cheap path
  };
  auto w = std::make_shared<Work>(Work{std::move(done), token, std::move(op),
                                       start, occupancy >= opt_.degrade_at});
  const std::uint64_t total_weight = std::max<std::uint64_t>(
      tenants_->total_weight(), 1);
  const std::size_t lane_cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(pool_.capacity() *
                                  tenants_->weight(tid) / total_weight));
  const bool accepted = pool_.try_post(
      worker, tid, tenants_->weight(tid), lane_cap, [this, w] {
        if (opt_.service_time.count() > 0 && !w->degraded)
          std::this_thread::sleep_for(opt_.service_time);
        else if (opt_.service_time.count() > 0)
          metrics_.count(Counter::degraded);
        finish(w->token, w->op, w->start, w->done);
      });
  if (!accepted) {
    // complete_now's `done` was moved into the Work; answer through it.
    done = std::move(w->done);
    complete_now(Errc::rejected, 0.0, Counter::rejected);
  } else {
    metrics_.queue_depth.set(static_cast<std::int64_t>(depth) + 1);
  }
}

std::vector<OpResult> RuntimeServer::run_batch(const std::string& token,
                                               std::vector<Op> ops) {
  std::vector<std::future<OpResult>> futs;
  futs.reserve(ops.size());
  for (auto& op : ops) futs.push_back(submit(token, std::move(op)));
  std::vector<OpResult> out;
  out.reserve(futs.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

}  // namespace memfss::rt
