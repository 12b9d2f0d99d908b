// RuntimeServer: the multithreaded front-end over ShardedStore -- the
// real-traffic counterpart of the simulator's kvstore::Server.
//
// Clients submit put/get/del/exists/auth operations (singly or in
// batches) on behalf of a *tenant* (a slot in rt::TenantRegistry; slot
// 0 is the default tenant, so single-tenant callers need not care).
// Each op is routed to the worker that owns the key's shard (shard
// index mod pool size), executes there, and completes a future.
//
// Admission runs three gates, in order (DESIGN.md §12):
//
//   1. rate: the tenant's ops/s and bytes/s token buckets. An
//      over-rate op completes immediately with Errc::overloaded and a
//      retry-after hint -- the burster is shed no matter how idle the
//      system is, so it can never displace under-quota tenants.
//   2. pressure: when the owning worker's occupancy crosses shed_at,
//      lower-priority tenants are shed (Errc::overloaded + hint) in
//      priority order -- writes a notch earlier than reads -- while
//      kTopPriority tenants are never pressure-shed. Between degrade_at
//      and shed_at the op is still admitted but executes the cheap
//      path (the simulated remote service_time is dropped).
//   3. queue: the tenant's own lane in the owning worker. A full lane
//      completes the op with Errc::rejected (queue-full, distinct from
//      the policy shed) without blocking the submitter.
//
// Admitted ops are drained by deficit-weighted round robin across
// tenant lanes (rt::ThreadPool), so a deep abusive lane cannot delay
// other tenants' ops beyond its weight share.
//
// Run to completion: an admitted op executes on the submitting thread,
// with no worker handoff, when both of these hold (DESIGN.md §11):
//   - service_time is 0 (a modeled remote access stays on a worker);
//   - the owning worker is idle: nothing queued, nothing running
//     (ThreadPool::try_run_inline claims it for the op's duration).
// That covers erasure-coded ops and large puts too: an in-process
// caller that waits for the result anyway may as well do the work
// itself. A caller that must stay cheap per op passes allow_inline =
// false for the ops it will not run; the TCP reactor does so for
// erasure-coded tenants and large puts (tcp_server.hpp). The idle
// condition keeps per-shard FIFO order, the shard seq and DRR fairness
// exactly as on the worker: an op runs inline only when no queue exists
// to be fair about, and it holds the worker meanwhile. Every other
// admitted op posts to the worker as before.
//
// An optional per-op service time models the remote-access latency of a
// disaggregated deployment (NIC + fabric round trip); workers sleep it
// off before touching the shard, so a latency-bound workload scales
// with worker count the way remote memory does, independent of host
// core count. The load generator uses this for its scaling sweeps.
//
// Metrics (per-verb counters, the per-op latency histogram, the
// queue-depth gauge, per-tenant ops/bytes/overloaded/rejected counters)
// go to the fixed instrument table in rt/serving_metrics.hpp: relaxed
// atomics indexed by enum and by tenant slot, named only when
// metrics().snapshot() is taken.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "kvstore/blob.hpp"
#include "rt/serving_metrics.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tenant_registry.hpp"
#include "rt/thread_pool.hpp"

namespace memfss::rt {

struct Op {
  /// Same order as the first rt::Counter entries (rt.ops.<verb>).
  enum class Type { put, get, del, exists, auth };
  Type type = Type::get;
  std::string key;             ///< ignored by auth
  kvstore::Blob value;         ///< put only
  std::uint32_t tenant = 0;    ///< TenantRegistry slot (0 = default)
};

constexpr bool op_is_write(Op::Type t) {
  return t == Op::Type::put || t == Op::Type::del;
}

struct OpResult {
  Errc code = Errc::ok;
  kvstore::Blob value;     ///< get: the fetched blob
  bool found = false;      ///< exists: presence
  /// Shard serialization index. Engaged iff the op reached its shard
  /// (put/get/del that were admitted and executed); disengaged for
  /// rejected/overloaded ops and for exists/auth, so a shed op can
  /// never be mistaken for one that ran.
  std::optional<std::uint64_t> seq;
  double latency_s = 0.0;    ///< submit-to-completion wall time
  /// overloaded only: seconds the client should wait before retrying.
  double retry_after_s = 0.0;
};

class RuntimeServer {
 public:
  struct Options {
    std::size_t threads = 1;            ///< worker threads
    std::size_t queue_capacity = 1024;  ///< per-worker aggregate queue bound
    /// Simulated remote-access latency applied per op inside the worker
    /// (0 = pure in-memory execution).
    std::chrono::microseconds service_time{0};
    /// Tenant table for admission/fairness. nullptr = the server owns a
    /// private registry holding only the default tenant (pre-QoS
    /// behavior).
    TenantRegistry* tenants = nullptr;
    // Overload ladder, in worker-occupancy fractions [0, 1]:
    double degrade_at = 0.50;  ///< drop service_time modeling (cheap path)
    double shed_at = 0.75;     ///< start shedding lowest-priority tenants
  };

  RuntimeServer(ShardedStore& store, Options opt);
  ~RuntimeServer();
  RuntimeServer(const RuntimeServer&) = delete;
  RuntimeServer& operator=(const RuntimeServer&) = delete;

  /// Completion callback for submit_async().
  using Completion = std::function<void(OpResult)>;

  /// Submit one operation; the future completes when the owning worker
  /// has executed it (or immediately, with Errc::overloaded /
  /// Errc::rejected, when admission sheds it).
  std::future<OpResult> submit(const std::string& token, Op op);

  /// Callback-style submit: `done` runs exactly once -- on the
  /// submitter's thread, before submit_async returns, when admission
  /// sheds the op or the op runs to completion inline (file comment:
  /// no service time and an idle worker; `allow_inline` false forces
  /// the post path, which is how a caller keeps an expensive op off its
  /// own thread); otherwise later, on the owning worker thread. A caller
  /// must therefore not hold, across the call, a lock that `done` takes.
  /// This is the path the TCP front-end uses: no future/promise
  /// allocation per network request, and a reactor can write an inline
  /// result straight into its connection.
  void submit_async(const std::string& token, Op op, Completion done,
                    bool allow_inline = true);

  /// Closed-loop batch: submit every op, then wait for all results
  /// (returned in input order).
  std::vector<OpResult> run_batch(const std::string& token,
                                  std::vector<Op> ops);

  ServingMetrics& metrics() { return metrics_; }
  const ServingMetrics& metrics() const { return metrics_; }
  /// The tenant table admission reads (Options::tenants or the owned one).
  const TenantRegistry& tenants() const { return *tenants_; }

  /// Drain queues and join workers. Idempotent; the destructor calls it.
  /// Every already-queued op still executes and resolves its future;
  /// ops submitted after the stop resolve with Errc::rejected.
  void shutdown() { pool_.stop(); }

 private:
  OpResult execute(const std::string& token, Op& op);
  /// Execute an admitted op, record it, and hand the result to `done`.
  void finish(const std::string& token, Op& op,
              std::chrono::steady_clock::time_point start,
              const Completion& done);

  ShardedStore& store_;
  Options opt_;
  std::unique_ptr<TenantRegistry> owned_tenants_;  ///< when opt.tenants null
  TenantRegistry* tenants_;
  std::chrono::steady_clock::time_point epoch_;  ///< origin of admission times
  ServingMetrics metrics_;
  ThreadPool pool_;  // last member: workers die before anything they use
};

}  // namespace memfss::rt
