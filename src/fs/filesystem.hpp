// FileSystem: the MemFSS façade.
//
// Owns one kvstore server per participating node, the metadata service,
// the class membership + placement epochs, and the scavenging lifecycle:
//
//   FileSystem fs(cluster, config);                 // own nodes only
//   fs.add_victim_class(1, offers, /*own_fraction=*/0.25);
//   auto client = fs.client(own_node);
//   co_await client.write_file("/data/part-0", 128_MiB);
//
// Scavenging semantics reproduced from the paper:
//   - own nodes (class 0) run tasks and store data+metadata; victim nodes
//     only store data (§III-A);
//   - the class weight steers the own/victim data split (§III-B);
//   - victim stores are capped in memory and bandwidth (container
//     isolation, §III-F) and authenticated (only own-node clients hold
//     the token);
//   - a victim can be *evacuated* at any time (monitor signal, §III-A):
//     its keys migrate to the next-ranked node of its class and the node
//     leaves the membership -- exactly the HRW minimal-disruption move,
//     so lookups stay correct with no per-stripe relocation table.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/monitor.hpp"
#include "cluster/reservation.hpp"
#include "common/result.hpp"
#include "fs/health.hpp"
#include "fs/metadata.hpp"
#include "fs/namespace.hpp"
#include "fs/placement.hpp"
#include "kvstore/server.hpp"
#include "sim/task.hpp"

namespace memfss::cluster {
class FaultInjector;
}

namespace memfss::fs {

class Client;

/// Class id of the own-node class. Victim classes use ids >= 1.
inline constexpr std::uint32_t kOwnClass = 0;

struct FileSystemConfig {
  std::vector<NodeId> own_nodes;
  Bytes own_store_capacity = 48 * units::GiB;  ///< per own node
  Bytes stripe_size = 4 * units::MiB;
  RedundancyMode redundancy = RedundancyMode::none;
  std::uint8_t copies = 2;       ///< replicated mode: total copies
  std::uint8_t ec_k = 4;         ///< erasure mode: data shards
  std::uint8_t ec_m = 2;         ///< erasure mode: parity shards
  std::string auth_token = "memfss-secret";

  // --- fault handling (failure detection; client retries: fs/client.hpp) ---
  /// Per-stripe RPC deadline (s); 0 disables the deadline. Off by default:
  /// under saturation a healthy stripe transfer can take seconds (fluid
  /// fair-sharing), so a fixed deadline must be chosen against the
  /// deployment's load -- fault-aware setups pick e.g. 0.25. Crashed nodes
  /// fail fast regardless (connection refused / io_error mid-transfer);
  /// the deadline matters for stalled-node failover.
  SimTime rpc_timeout = 0.0;
  /// Time between a node dying and the filesystem acting on it (membership
  /// removal + targeted repair). Clients that time out on the node first
  /// accelerate detection via report_suspect.
  SimTime failure_detect_delay = 0.2;
  /// Drain window granted to revoked/evicted victims before leftover data
  /// is declared lost and the node is killed.
  SimTime revocation_grace = 5.0;

  // --- partition tolerance (per-server health, client resilience) ----------
  /// Per-node circuit breakers: `failure_threshold` consecutive
  /// connectivity faults (timeout / unreachable / unavailable / io_error)
  /// open a node's breaker; 0 disables breakers entirely (the default --
  /// fault-naive runs behave bit-identically to builds without them).
  /// While open (`cooldown` seconds), client requests to the node fail
  /// locally with Errc::rejected at zero simulated cost.
  BreakerConfig breaker{};
  /// Hedged reads: when the primary replica has not answered after this
  /// latency quantile of fs.read_stripe.latency, fire the same get at the
  /// next replica and take whichever answers first. 0 disables (default).
  double hedge_quantile = 0.0;
  /// Observed stripe reads required before the quantile is trusted;
  /// until then reads stay un-hedged.
  std::uint64_t hedge_min_samples = 64;

  // --- tiered hot/cold memory (DESIGN.md §16) -------------------------------
  /// Cold-tier capacity attached to every victim server; 0 disables
  /// tiering entirely (the default -- untiered runs behave bit-identically
  /// to builds without it, like breaker.failure_threshold = 0). With a
  /// tier attached, victim pressure demotes coldest keys to the tier
  /// instead of evacuating the whole node, and escalates to eviction only
  /// when the tier cannot absorb the overage.
  Bytes victim_tier_capacity = 0;
};

struct FsCounters {
  std::uint64_t stripes_written = 0;
  std::uint64_t stripes_read = 0;
  std::uint64_t lazy_relocations = 0;
  std::uint64_t read_retries = 0;
  std::uint64_t reconstructions = 0;  ///< erasure decodes that used parity
  std::uint64_t degraded_reads = 0;   ///< reads that fell back past a failure
  std::uint64_t rpc_timeouts = 0;     ///< per-stripe RPCs abandoned at deadline
  std::uint64_t write_retries = 0;    ///< stripe put attempts after a failure
  std::uint64_t hedged_reads = 0;     ///< second replica requests fired
  std::uint64_t hedge_wins = 0;       ///< hedges that supplied the result
  std::uint64_t breaker_rejections = 0;  ///< ops failed fast on open breaker
  std::uint64_t breaker_reroutes = 0;    ///< writes steered off open breakers
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
};

/// Aggregated outcome of fault handling (exp-layer recovery metrics).
struct RecoveryStats {
  std::size_t failures_handled = 0;  ///< crash / revocation / eviction events
  std::size_t repairs = 0;           ///< targeted repair passes completed
  std::size_t stripes_repaired = 0;  ///< copies/shards restored by them
  Bytes bytes_re_replicated = 0;
  double total_repair_time = 0.0;    ///< sum of failure -> repaired intervals
  double mean_time_to_repair() const {
    return repairs ? total_repair_time / static_cast<double>(repairs) : 0.0;
  }
};

class FileSystem {
 public:
  FileSystem(cluster::Cluster& cluster, FileSystemConfig config);
  ~FileSystem();
  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  const FileSystemConfig& config() const { return config_; }
  cluster::Cluster& cluster() { return cluster_; }
  MetadataService& meta() { return meta_; }
  FsCounters& counters() { return counters_; }
  const FsCounters& counters() const { return counters_; }

  /// A client handle bound to an own node (only own nodes mount the FUSE
  /// layer, §III-C).
  Client client(NodeId own_node);

  // --- scavenging lifecycle ----------------------------------------------

  /// Add a victim class from claimed scavenge offers; `own_fraction` is
  /// the target share of data kept on own nodes (the paper's alpha).
  /// Creates a new placement epoch. class_id must be unused and >= 1.
  Status add_victim_class(std::uint32_t class_id,
                          const std::vector<cluster::ScavengeOffer>& offers,
                          double own_fraction);

  /// Extend an existing victim class with more offers (no epoch change;
  /// HRW redistributes lazily).
  Status add_victim_nodes(std::uint32_t class_id,
                          const std::vector<cluster::ScavengeOffer>& offers);

  /// Install an explicit weight configuration as a new epoch (for
  /// multi-victim-class setups). Every class must have live members.
  Status add_epoch(std::vector<ClassWeight> weights);

  /// Evacuate one victim node: membership removal + key migration to the
  /// next-ranked nodes of its class. Store closes when drained.
  sim::Task<Status> evacuate_victim(NodeId node);

  /// Wire pressure monitors on every current victim node: when tenant
  /// memory passes `threshold_fraction`, evacuation starts automatically.
  /// With a fault injector attached, evictions are routed through its
  /// event bus (shared accounting + graceful-drain-or-kill handling).
  /// Tiered victims (victim_tier_capacity > 0) demote coldest-first
  /// instead and only escalate to eviction when the tier is full.
  void arm_victim_monitors(double threshold_fraction);

  /// One demote-coldest-first pass on a tiered victim: walk the node's
  /// keys coldest-first, demoting until pool usage drops below the
  /// monitor threshold minus kDemoteHeadroom (filesystem.cpp). Escalates
  /// to the normal eviction path when demotion cannot relieve the
  /// pressure (cold tier full, or nothing left to demote).
  sim::Task<> demote_coldest(NodeId node);

  // --- fault handling ------------------------------------------------------

  /// Subscribe this filesystem to an injector's fault bus. Crashes mark
  /// the node's server down and (after failure_detect_delay) remove it
  /// from the membership and start a targeted repair of exactly the
  /// stripes it held; stalls freeze the server; class revocations drain
  /// the whole class under revocation_grace.
  void attach_fault_injector(cluster::FaultInjector& injector);

  /// Client-side failure detector input: a client that timed out (or saw
  /// unavailable/io_error) on `node` reports it. Checked against server
  /// liveness ground truth -- a slow-but-alive node is never evicted --
  /// and accelerates the pending crash detection if the node is dead.
  void report_suspect(NodeId node);

  /// Revoke a whole victim class: the owner tenant takes its machines
  /// back. Members leave the membership immediately (lookups fall back to
  /// remaining classes), drain cooperatively for `grace` seconds, then
  /// stragglers are killed and a targeted repair restores redundancy.
  sim::Task<Status> revoke_victim_class(std::uint32_t class_id,
                                        SimTime grace);

  const RecoveryStats& recovery() const { return recovery_; }

  /// Tune the client fault-handling knobs after mount (the rest of the
  /// config is fixed at construction). The right rpc_timeout depends on
  /// the deployment's load -- see FileSystemConfig::rpc_timeout -- so
  /// fault-aware rigs set it explicitly instead of baking in a default.
  void set_fault_tuning(SimTime rpc_timeout, SimTime failure_detect_delay,
                        SimTime revocation_grace) {
    config_.rpc_timeout = rpc_timeout;
    config_.failure_detect_delay = failure_detect_delay;
    config_.revocation_grace = revocation_grace;
  }

  /// Tune the partition-tolerance knobs after mount (see the matching
  /// FileSystemConfig fields). breaker.failure_threshold = 0 and
  /// hedge_quantile = 0 switch the respective feature off.
  void set_resilience_tuning(BreakerConfig breaker, double hedge_quantile,
                             std::uint64_t hedge_min_samples = 64);

  /// Per-server circuit breakers (shared by every client handle).
  HealthRegistry& health() { return health_; }
  const HealthRegistry& health() const { return health_; }

  /// Current hedged-read trigger delay: the configured latency quantile
  /// of observed stripe reads, or 0 while hedging is off / the histogram
  /// has fewer than hedge_min_samples samples.
  SimTime hedge_delay() const;

  // --- placement ----------------------------------------------------------

  std::uint32_t current_epoch() const { return epochs_.back().id; }
  const PlacementEpoch& epoch(std::uint32_t id) const;
  ClassHrwPolicy policy_for_epoch(std::uint32_t id) const;

  // --- servers / telemetry -------------------------------------------------

  bool has_server(NodeId node) const { return servers_.count(node) > 0; }
  kvstore::Server& server(NodeId node);
  const std::string& token() const { return config_.auth_token; }
  bool is_draining(NodeId node) const { return draining_.count(node) > 0; }
  const std::set<NodeId>& draining_nodes() const { return draining_; }

  /// Bytes currently stored on a node's server.
  Bytes bytes_on(NodeId node) const;

  /// (node, bytes) for every participating node, own nodes first.
  std::vector<std::pair<NodeId, Bytes>> distribution() const;

  /// Total bytes across all servers.
  Bytes total_bytes() const;

  /// Administrative reset between experiment repetitions: drops all file
  /// data and the namespace at zero simulated cost (the real system would
  /// simply be restarted between runs).
  void wipe_data();

  // --- maintenance (fs/maintenance.cpp) ------------------------------------

  struct MaintenanceReport {
    std::size_t files_scanned = 0;
    std::size_t files_updated = 0;   ///< rebalance: epoch advanced
    std::size_t stripes_moved = 0;   ///< rebalance: relocated stripes
    std::size_t stripes_repaired = 0;  ///< repair: copies/shards restored
    std::size_t corruptions_found = 0;  ///< scrub: bad copies dropped
    Bytes bytes_moved = 0;
    Status status{};
  };

  /// Active rebalance: migrate every file written under an older epoch to
  /// the *current* epoch's placement and update its metadata. The eager
  /// complement of lazy relocation -- run it after adding a victim class
  /// when read-triggered migration is too slow.
  sim::Task<MaintenanceReport> rebalance_all();

  /// Repair: re-create missing replicas (replicated files) and missing
  /// shards (erasure files) from surviving copies. Run after a node
  /// crash; files with redundancy `none` cannot be repaired and are
  /// skipped.
  sim::Task<MaintenanceReport> repair_all();

  /// Scrub: read every stored stripe/replica/shard, verify its checksum,
  /// drop corrupt copies, then run repair to restore redundancy. The
  /// report's `corruptions_found` counts dropped copies; status turns
  /// `corruption` if an unredundant stripe was lost.
  sim::Task<MaintenanceReport> scrub_all();

  /// Targeted repair: like repair_all but restricted to the given
  /// (inode, stripe index) list -- the stripes a failed node actually
  /// held. O(affected) instead of O(namespace), which is what makes
  /// crash recovery cheap on large trees.
  sim::Task<MaintenanceReport> repair_affected(
      std::vector<std::pair<InodeId, std::size_t>> stripes);

  // --- elasticity (own-class membership; MemEFS heritage) -----------------

  /// Grow the own class: the nodes start storing data (and metadata
  /// shards) immediately; existing stripes migrate lazily on access or
  /// eagerly via rebalance_all().
  Status add_own_nodes(const std::vector<NodeId>& nodes,
                       Bytes store_capacity = 0 /* 0 = config default */);

  /// Shrink the own class: migrate the node's data to the remaining own
  /// nodes and retire its server. At least one own node must remain.
  sim::Task<Status> remove_own_node(NodeId node);

 private:
  friend class Client;

  void make_server(NodeId node, Bytes capacity, Rate net_cap, bool victim);

  /// Begin a full victim eviction (monitor path, or tiered-pressure
  /// escalation): through the attached fault injector's bus if there is
  /// one, else spawns evacuate_victim and records the reclaim stall in
  /// fs.victim_reclaim.latency.
  void start_evacuation(NodeId node);

  // --- fault handling internals (filesystem.cpp / maintenance.cpp) --------
  void handle_crash(NodeId node);
  void handle_revoke(std::uint32_t class_id);
  void handle_evict(NodeId node);
  /// Act on a pending failure: membership removal + targeted repair.
  void detect_failure(NodeId node);
  /// Remove a dead node from membership/own-node bookkeeping.
  void retire_node(NodeId node);
  /// Dedupe raw storage keys into (inode, stripe) pairs.
  std::vector<std::pair<InodeId, std::size_t>> collect_affected(
      const std::vector<std::string>& keys) const;
  /// Repair the stripes a failure at `failed_at` touched and record it as
  /// one recovery: RecoveryStats, fs.recovery.latency, and a cluster span
  /// named `span` whose detail is `detail` + " repaired=<n>".
  sim::Task<Status> run_targeted_repair(
      std::vector<std::pair<InodeId, std::size_t>> affected,
      SimTime failed_at, const char* span, std::string detail);
  /// run_targeted_repair after a crash or an eviction; warns on data loss.
  sim::Task<> recover(std::vector<std::pair<InodeId, std::size_t>> affected,
                      SimTime failed_at);
  /// Take `node` out of class `cls` and migrate every key it holds to the
  /// key's HRW home among the class's remaining members (the own class
  /// once `cls` is empty), then close its store.
  sim::Task<Status> migrate_out(NodeId node, std::uint32_t cls);
  /// Migrate every key off `node` to its placement-correct home.
  sim::Task<Status> drain_node(NodeId node);
  sim::Task<> drain_or_kill(NodeId node, SimTime grace);
  /// Where a drained key belongs under live membership (kInvalidNode:
  /// nowhere useful -- drop it).
  NodeId drain_target(const std::string& key, NodeId src);
  /// Restore missing copies/shards of one stripe (shared by repair_all
  /// and repair_affected).
  sim::Task<> repair_stripe(const ClassHrwPolicy& policy, const Stat& st,
                            std::size_t stripe_index,
                            MaintenanceReport& report);

  cluster::Cluster& cluster_;
  FileSystemConfig config_;
  MetadataService meta_;
  ClassMembership membership_;
  std::vector<PlacementEpoch> epochs_;
  std::map<NodeId, std::unique_ptr<kvstore::Server>> servers_;
  std::map<NodeId, std::unique_ptr<net::CapGroup>> cap_groups_;
  std::map<NodeId, std::uint32_t> node_class_;  ///< node -> class id
  std::set<NodeId> draining_;
  std::vector<std::unique_ptr<cluster::VictimMonitor>> monitors_;
  /// Threshold fraction the monitors were armed with (demote passes stop
  /// at threshold - kDemoteHeadroom).
  double monitor_threshold_ = 1.0;
  FsCounters counters_;
  HealthRegistry health_;
  cluster::FaultInjector* injector_ = nullptr;
  RecoveryStats recovery_;
  /// Crash snapshots awaiting detection: what the node held, taken the
  /// instant it died (afterwards the data -- and the HRW answer "what was
  /// here" -- are gone).
  struct PendingFailure {
    SimTime at = 0.0;
    std::vector<std::pair<InodeId, std::size_t>> affected;
  };
  std::map<NodeId, PendingFailure> pending_failures_;
};

/// The one order in which fs paths look for a stored copy of a stripe:
/// its expected homes, then the rest of the probe order, then nodes that
/// are mid-drain. A membership change shifts every HRW rank below the
/// departed node, so a surviving copy is often one rank off its home; a
/// draining node holds keys with no rank at all. Nodes without a server
/// are skipped. The drain set is read live, and only once the homes and
/// the probe order are used up, so a caller that awaits between
/// candidates sees the drains that began meanwhile.
class HolderSearch {
 public:
  /// `homes` and `order` must outlive the search.
  HolderSearch(const FileSystem& fs, std::span<const NodeId> homes,
               std::span<const NodeId> order)
      : fs_(fs), homes_(homes), order_(order) {}

  /// The next candidate, or kInvalidNode once every one was offered.
  NodeId next();

  /// Which of the three sources the last candidate came from.
  enum class From { home, probe_order, drain };
  From from() const {
    if (in_drain_) return From::drain;
    return pos_ <= homes_.size() ? From::home : From::probe_order;
  }

 private:
  const FileSystem& fs_;
  std::span<const NodeId> homes_, order_;
  std::size_t pos_ = 0;  ///< into homes_, then on into order_
  bool in_drain_ = false;
  std::set<NodeId>::const_iterator drain_;
};

}  // namespace memfss::fs
