// Simulated kvstore server: one per cluster node running a Store, charging
// the node's simulated resources for every request.
//
// Cost model (paper-relevant behaviour it produces):
//   - per-request CPU cost + per-byte CPU cost: many small requests are
//     disproportionately expensive -- this is why BLAST (many small I/O
//     requests) disturbs latency-sensitive MPI tenants more than the
//     bulk-streaming dd does (paper §IV-C);
//   - per-byte memory bandwidth: scavenged stores compete with STREAM-like
//     tenant phases for memory bandwidth;
//   - transfers tagged with the node's scavenge CapGroup: the container
//     bandwidth cap of §III-F.
// CPU / memory-bandwidth / wire charges overlap (when_all), as they do in
// a pipelined server.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "common/types.hpp"
#include "kvstore/rate_meter.hpp"
#include "kvstore/store.hpp"
#include "kvstore/tier.hpp"
#include "net/fabric.hpp"
#include "obs/obs.hpp"
#include "sim/fluid.hpp"
#include "sim/memory.hpp"
#include "sim/task.hpp"

namespace memfss::kvstore {

/// Liveness lifecycle of a simulated server process.
///
///   up      -- serving normally;
///   stalled -- transient straggler: requests hang until the stall ends
///              (clients are expected to time out and fail over);
///   down    -- crashed or revoked: the in-memory store is gone, new
///              requests fail fast (connection refused) and transfers
///              in flight at crash time fail rather than complete.
enum class Liveness { up, stalled, down };

/// Resource hooks the server charges; any may be null (not charged).
struct ResourceHooks {
  sim::FluidResource* cpu = nullptr;     ///< node CPU (capacity = cores)
  sim::FluidResource* membw = nullptr;   ///< node memory bandwidth (B/s)
  sim::MemoryPool* mem = nullptr;        ///< node memory capacity
  net::CapGroup* net_cap = nullptr;      ///< container bandwidth ceiling
  obs::Observability* obs = nullptr;     ///< metrics + tracing sink
};

struct ServerCosts {
  double cpu_per_request = 30e-6;   ///< core-seconds per operation
  double cpu_per_byte = 1.25e-9;    ///< core-seconds per payload byte
  double membw_per_byte = 2.0;      ///< memory-bus bytes per payload byte
  /// The store engine is single-threaded like Redis: all request CPU work
  /// funnels through `engine_cores` worth of cores, capping per-server
  /// ingest at engine_cores / cpu_per_byte bytes/s (~0.8 GB/s at the
  /// defaults) -- the paper's load-balance argument for Fig. 2f depends
  /// on this per-node service limit.
  double engine_cores = 1.0;
};

class Server {
 public:
  Server(sim::Simulator& sim, net::Fabric& fabric, NodeId node,
         Bytes store_capacity, std::string auth_token,
         ResourceHooks hooks = {}, ServerCosts costs = {});

  NodeId node() const { return node_; }
  Store& store() { return store_; }
  const Store& store() const { return store_; }

  /// Requests/s seen recently (victim-interference telemetry).
  double request_rate() const;

  /// Payload bytes/s moved recently (in + out).
  double byte_rate() const;

  const ServerCosts& costs() const { return costs_; }

  // --- client-side operations (invoked from `client`'s node) -------------

  sim::Task<Status> put(NodeId client, std::string_view token,
                        std::string key, Blob value);
  sim::Task<Result<Blob>> get(NodeId client, std::string_view token,
                              std::string key);
  sim::Task<Result<bool>> exists(NodeId client, std::string_view token,
                                 std::string key);
  sim::Task<Status> del(NodeId client, std::string_view token,
                        std::string key);

  /// Charge the cost of `count` additional small requests accompanying a
  /// bulk operation (chatty clients like BLAST issue many sub-stripe
  /// reads/writes; volume-wise they are covered by the bulk transfer, but
  /// their per-request CPU and request-rate footprint -- what disturbs
  /// latency-sensitive tenants -- must still land on the server).
  sim::Task<> request_burst(NodeId client, double count);

  /// Server-to-server bulk copy of one key (migration/evacuation path).
  /// Reads locally, ships the bytes, writes into `dst`.
  sim::Task<Status> migrate_key(std::string_view token, std::string key,
                                Server& dst);

  /// Like migrate_key but keeps the local copy (repair / re-replication).
  sim::Task<Status> replicate_key(std::string_view token, std::string key,
                                  Server& dst);

  // --- tiered hot/cold memory (DESIGN.md §16) -----------------------------

  /// Attach a cold tier; `heat_epoch` is the decay epoch length in sim
  /// seconds (heat counters halve per epoch). Only tiered servers track
  /// heat, serve cold hits, or accept demote/promote -- an untiered
  /// server behaves bit-identically to builds without tiering.
  void attach_tier(std::unique_ptr<ColdTier> tier, SimTime heat_epoch);
  bool tiered() const { return tier_ != nullptr; }
  ColdTier* tier() { return tier_.get(); }
  const ColdTier* tier() const { return tier_.get(); }

  /// Current heat-decay epoch (floor of sim time / epoch length).
  std::uint64_t heat_epoch_now() const;

  /// Size of a resident value, hot or cold, with the store's auth check.
  Result<Bytes> resident_size(std::string_view token,
                              std::string_view key) const;

  /// Hot + cold keys (evacuation and crash-snapshot scans).
  std::vector<std::string> all_keys() const;

  /// Hot keys coldest-first at the current epoch (demotion scan order).
  std::vector<std::string> demotion_order() const;

  /// Bytes accounted in the cold tier (0 when untiered).
  Bytes tier_bytes() const { return tier_ ? tier_->used() : 0; }

  /// Move one hot key to the cold tier, charging the tier write cost and
  /// releasing its node memory. The move itself is atomic: a crash during
  /// the device write leaves the entry hot, never in both tiers.
  sim::Task<Status> demote_key(std::string key);

  /// Move one cold key back to the hot store, charging the tier read
  /// cost and re-charging node memory. out_of_memory if the pool or the
  /// store cannot take the bytes back (the entry stays cold).
  sim::Task<Status> promote_key(std::string key);

  /// Stop serving (store turns unavailable); in-flight ops complete.
  void close();

  /// Administrative reset: drop all keys and release the node memory they
  /// charged. Used by experiment harnesses between repetitions.
  void wipe();

  // --- liveness lifecycle (fault injection) -------------------------------

  Liveness liveness() const { return live_; }
  bool is_up() const { return live_ == Liveness::up; }

  /// Hard failure: the process dies, its in-memory data is lost, and every
  /// operation in flight fails instead of completing. Irreversible (a
  /// restarted store would come back empty under a new identity; the
  /// filesystem treats the node as gone).
  void crash();

  /// Transient straggler: requests arriving (or already queued) during the
  /// stall are held until it ends. Overlapping stalls extend the window.
  void stall_for(SimTime duration);

 private:
  /// Hold the calling operation while the server is stalled.
  sim::Task<> stall_gate();
  /// Charge request bookkeeping + overlapped CPU/membw/wire costs.
  sim::Task<> charge(NodeId client, Bytes payload, bool to_client);
  /// Charge a cold-tier device pass (device time + engine + CPU + membw).
  sim::Task<> charge_tier(Bytes payload, bool write);
  /// Synchronous cold->hot move (costs already charged by the caller):
  /// take from the tier, re-charge node memory, restore into the store.
  /// False (entry stays cold) if pool or store cannot take the bytes.
  bool reinstall_hot(const std::string& key);
  /// Record one access for heat tracking (no-op when untiered).
  void touch_heat(const std::string& key);

  // put/get split into timing shells + _impl bodies: the impls have
  // several early co_return paths (down, died mid-transfer) and the
  // service-time histogram must see all of them.
  sim::Task<Status> put_impl(NodeId client, std::string_view token,
                             std::string key, Blob value);
  sim::Task<Result<Blob>> get_impl(NodeId client, std::string_view token,
                                   std::string key);

  /// Bump/drop the in-flight request count and refresh the queue-depth
  /// and memory-watermark gauges (no-ops when obs is not attached).
  void enter_request();
  void leave_request();

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  NodeId node_;
  Store store_;
  ResourceHooks hooks_;
  ServerCosts costs_;
  RateMeter meter_;        ///< requests/s
  RateMeter byte_meter_;   ///< payload bytes/s
  sim::FluidResource engine_;  ///< single-threaded store engine
  Liveness live_ = Liveness::up;
  SimTime stalled_until_ = 0.0;
  /// Bumped by crash(); an operation that observes a different value after
  /// a resource charge knows its transfer raced the failure.
  std::uint64_t incarnation_ = 0;

  // Observability handles (null when hooks_.obs is not set).
  obs::Histogram* h_put_ = nullptr;    ///< kv.put.service (s)
  obs::Histogram* h_get_ = nullptr;    ///< kv.get.service (s)
  obs::Gauge* g_queue_ = nullptr;      ///< kv.n<id>.queue_depth
  obs::Gauge* g_mem_ = nullptr;        ///< kv.n<id>.mem_bytes (watermark)
  std::size_t inflight_ = 0;

  // Tiered memory (all null/empty until attach_tier; the instruments are
  // only created on tiered servers so untiered metric registries stay
  // byte-identical to builds without tiering).
  std::unique_ptr<ColdTier> tier_;
  SimTime heat_epoch_len_ = 1.0;
  obs::Counter* c_demotions_ = nullptr;   ///< tier.demotions (shared)
  obs::Counter* c_promotions_ = nullptr;  ///< tier.promotions (shared)
  obs::Counter* c_cold_hits_ = nullptr;   ///< tier.cold_hits (shared)
  obs::Gauge* g_tier_bytes_ = nullptr;    ///< tier.resident_bytes (shared)
  obs::Histogram* h_cold_ = nullptr;      ///< tier.cold_hit_latency (s)
};

}  // namespace memfss::kvstore
