// Fault injection: declarative, seed-deterministic failure schedules for
// the scavenging premise the paper rests on -- victim memory is *borrowed*
// and can vanish at any time (node crash, tenant reclaiming its machines,
// stragglers, degraded links).
//
// Layering: the injector lives in the cluster layer and does not know the
// filesystem. It owns the schedule, the event bus, and the one fault it
// can apply by itself (NIC degradation, via the fabric). Everything that
// involves a kvstore::Server -- crashing it, stalling it, draining it --
// is performed by subscribers (fs::FileSystem attaches its handlers with
// attach_fault_injector). Monitor-driven evictions are routed through the
// same bus so every "victim leaves" path shares one accounting point.
//
// Determinism: FaultPlan::random draws all arrival times from a caller-
// provided Rng up front; arming a plan schedules plain simulator events,
// so two runs with the same seed inject byte-identical fault sequences.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace memfss::cluster {

enum class FaultKind : std::uint8_t {
  crash_node,    ///< process dies, memory contents lost, never returns
  revoke_class,  ///< owner tenant reclaims every machine of a victim class
  stall_node,    ///< transient straggler: requests hang for `duration`
  degrade_nic,   ///< NIC up/down rates scaled by `factor` for `duration`
  partition,     ///< link(s) cut: node isolated, or node<->peer severed
  heal,          ///< cut link(s) restored
};

struct FaultEvent {
  SimTime at = 0.0;
  FaultKind kind = FaultKind::crash_node;
  NodeId node = kInvalidNode;      ///< crash / stall / degrade / cut target
  std::uint32_t victim_class = 0;  ///< revoke_class target
  SimTime duration = 0.0;          ///< stall / degrade / partition length
  double factor = 1.0;             ///< degrade: rate multiplier in (0, 1]
  NodeId peer = kInvalidNode;      ///< partition/heal: other end of the
                                   ///< link; kInvalidNode = all links of
                                   ///< `node` (and heal with both ends
                                   ///< invalid = heal every cut)
  bool oneway = false;             ///< partition: cut node->peer only
};

/// A declarative fault schedule. Build it fluently, or derive one from a
/// seeded Rng with random(); the injector replays it against the cluster.
class FaultPlan {
 public:
  FaultPlan& crash(SimTime at, NodeId node);
  FaultPlan& revoke_class(SimTime at, std::uint32_t class_id);
  FaultPlan& stall(SimTime at, NodeId node, SimTime duration);
  FaultPlan& degrade_nic(SimTime at, NodeId node, double factor,
                         SimTime duration);
  /// Isolate `node` from every other node for `duration` (auto-heals).
  FaultPlan& partition(SimTime at, NodeId node, SimTime duration);
  /// Sever the node<->peer link for `duration` (auto-heals). With
  /// `oneway`, only node->peer drops: requests arrive, replies vanish.
  FaultPlan& cut_link(SimTime at, NodeId node, NodeId peer, SimTime duration,
                      bool oneway = false);
  /// Explicit heal: of node<->peer, of all of `node`'s links
  /// (peer == kInvalidNode), or of every cut (both invalid).
  FaultPlan& heal(SimTime at, NodeId node = kInvalidNode,
                  NodeId peer = kInvalidNode);
  /// Append every event of `other` to this plan.
  FaultPlan& append(const FaultPlan& other);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Events sorted by time (stable: insertion order breaks ties).
  std::vector<FaultEvent> sorted() const;

  struct RandomParams {
    SimTime horizon = 300.0;       ///< schedule faults in [0, horizon)
    double crash_rate = 0.0;       ///< expected crashes per node over horizon
    double stall_rate = 0.0;       ///< expected stalls per node over horizon
    SimTime stall_duration = 1.0;  ///< mean stall length (exponential)
    double degrade_rate = 0.0;     ///< expected NIC events per node
    double degrade_factor = 0.25;  ///< rate multiplier while degraded
    SimTime degrade_duration = 5.0;
    double partition_rate = 0.0;   ///< expected partitions per node
    SimTime partition_duration = 1.0;  ///< mean cut length (exponential)
    double partition_link_fraction = 0.5;  ///< P(single link vs isolation)
    double partition_oneway_fraction = 0.25;  ///< P(link cut is one-way)
  };

  /// Seed-deterministic random plan over `nodes`: per-node Poisson
  /// arrivals for each fault kind (at most one crash per node -- a crashed
  /// node stays dead). Same Rng state in => same plan out.
  static FaultPlan random(Rng& rng, const std::vector<NodeId>& nodes,
                          const RandomParams& params);

 private:
  std::vector<FaultEvent> events_;
};

struct FaultInjectorStats {
  std::size_t crashes = 0;
  std::size_t revocations = 0;        ///< classes revoked
  std::size_t stalls = 0;
  std::size_t nic_degradations = 0;
  std::size_t evictions = 0;          ///< monitor-driven reclaims routed through
  std::size_t partitions = 0;         ///< link cuts / isolations applied
  std::size_t heals = 0;              ///< cut restorations applied
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, Cluster& cluster);

  using NodeHook = std::function<void(NodeId)>;
  using StallHook = std::function<void(NodeId, SimTime)>;
  using ClassHook = std::function<void(std::uint32_t)>;
  using LinkHook = std::function<void(NodeId, NodeId)>;  ///< (node, peer)

  // --- subscriptions (multiple subscribers allowed) -----------------------
  void on_crash(NodeHook h) { crash_hooks_.push_back(std::move(h)); }
  void on_revoke(ClassHook h) { revoke_hooks_.push_back(std::move(h)); }
  void on_stall(StallHook h) { stall_hooks_.push_back(std::move(h)); }
  void on_evict(NodeHook h) { evict_hooks_.push_back(std::move(h)); }
  void on_partition(LinkHook h) { partition_hooks_.push_back(std::move(h)); }
  void on_heal(LinkHook h) { heal_hooks_.push_back(std::move(h)); }

  /// Schedule every event of `plan` on the simulator (relative to now).
  void arm(const FaultPlan& plan);

  // --- immediate injection (also used by scheduled events) ----------------
  void crash_now(NodeId node);
  void revoke_class_now(std::uint32_t class_id);
  void stall_now(NodeId node, SimTime duration);
  void degrade_nic_now(NodeId node, double factor, SimTime duration);
  /// Cut links now: node<->peer, or all of `node`'s links when peer is
  /// kInvalidNode. duration > 0 schedules the matching heal.
  void partition_now(NodeId node, NodeId peer, SimTime duration,
                     bool oneway = false);
  /// Restore links now: node<->peer, all of `node`'s (peer invalid), or
  /// every cut in the fabric (both invalid).
  void heal_now(NodeId node = kInvalidNode, NodeId peer = kInvalidNode,
                bool oneway = false);

  /// Route a monitor-driven eviction (tenant wants its memory back)
  /// through the fault bus so subscribers and stats see it.
  void evict_now(NodeId node);

  const FaultInjectorStats& stats() const { return stats_; }
  const std::vector<FaultEvent>& injected() const { return injected_; }

 private:
  void fire(const FaultEvent& ev);
  /// Count the fault in the metrics registry and (when cluster tracing is
  /// on) drop an instant event on the timeline.
  void observe(const char* name, NodeId node, const std::string& detail);

  sim::Simulator& sim_;
  Cluster& cluster_;
  FaultInjectorStats stats_;
  std::vector<FaultEvent> injected_;  ///< log, in injection order
  std::vector<NodeHook> crash_hooks_, evict_hooks_;
  std::vector<StallHook> stall_hooks_;
  std::vector<ClassHook> revoke_hooks_;
  std::vector<LinkHook> partition_hooks_, heal_hooks_;
};

}  // namespace memfss::cluster
