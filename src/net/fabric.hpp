// Simulated cluster network fabric.
//
// Topology: full-bisection core (like DAS-5's FDR InfiniBand fat tree) --
// the only capacity constraints are each node's NIC uplink and downlink.
// Transfers are modelled as fluid flows; on every flow arrival/departure
// the fabric recomputes a global max-min fair allocation by progressive
// filling:
//
//   all unfrozen flows share one fill level l, raised until a link
//   saturates (or a flow hits its rate cap); flows crossing that link
//   freeze at l; repeat until every flow is frozen.
//
// Rate caps: a flow can carry (a) an individual cap and (b) a CapGroup --
// a shared ceiling over a set of flows, which is how the Linux-container
// bandwidth isolation of scavenged Redis processes (paper §III-F) is
// modelled: all scavenging flows into one victim node share one CapGroup.
//
// Per-node up/down utilization is tracked time-weighted; Fig. 2's
// bandwidth plots read these accumulators.
// Performance: flows identical in (src, dst, cap, group) -- e.g. the
// thousands of concurrent same-path stripe transfers of a dd bag -- are
// aggregated into *bundles* with a multiplicity count. Under max-min
// fairness such flows are interchangeable: they share one fill-level
// trajectory and freeze together, so the progressive-filling loop runs
// over bundles and the ports/groups they actually touch instead of
// rescanning every flow each round. Rates are provably (and bit-)
// identical to the per-flow computation; see DESIGN.md §9.
#pragma once

#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace memfss::net {

struct NicSpec {
  Rate up = 3e9;             ///< bytes/s (DAS-5 IPoIB ~ 3 GB/s)
  Rate down = 3e9;
  SimTime latency = 20e-6;   ///< one-way message latency (s)
};

/// Shared rate ceiling over a set of flows (container bandwidth cap).
class CapGroup {
 public:
  explicit CapGroup(Rate limit) : limit_(limit) {}
  Rate limit() const { return limit_; }

 private:
  friend class Fabric;
  Rate limit_;
  // Scratch fields used during progressive filling. `stamp_` marks the
  // filling pass that last initialized this group (first-touch reset).
  Rate residual_ = 0;
  std::size_t count_ = 0;
  std::uint64_t stamp_ = 0;
};

class Fabric {
 public:
  static constexpr Rate kUncapped = std::numeric_limits<Rate>::infinity();

  Fabric(sim::Simulator& sim, std::size_t node_count, NicSpec spec);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  std::size_t node_count() const { return nics_.size(); }
  const NicSpec& nic(NodeId n) const { return nics_[n]; }
  void set_nic(NodeId n, NicSpec spec);

  /// Attach the deployment's observability context (cluster::Cluster does
  /// this for clusters; standalone fabrics stay uninstrumented). Bulk
  /// flows >= kObsMinFlowBytes record a lifetime histogram, an
  /// achieved-vs-fair-rate histogram, and (when net tracing is enabled)
  /// one span per flow; smaller control messages only count.
  void set_observability(obs::Observability* o);

  /// Flows below this size are control messages: counted, not traced.
  static constexpr Bytes kObsMinFlowBytes = 4096;

  /// Bulk transfer of `size` bytes src -> dst. Completes when the last
  /// byte arrives (one latency charge + fluid transmission). Same-node
  /// transfers complete after a loopback latency only.
  sim::Task<> transfer(NodeId src, NodeId dst, Bytes size,
                       Rate flow_cap = kUncapped, CapGroup* group = nullptr);

  /// Small control message: one latency charge plus the (tiny) serialized
  /// size through the fluid model.
  sim::Task<> message(NodeId src, NodeId dst, Bytes size = 256);

  // --- link cuts (network partitions) ---------------------------------
  //
  // A cut is directional: cut_link(a, b, /*oneway=*/true) drops a -> b
  // while b -> a still delivers (the classic asymmetric-routing failure).
  // Flows already in flight across a cut link stall at rate 0 -- the
  // bytes are neither delivered nor lost -- and resume when the link
  // heals; clients observe the stall as an RPC timeout. Callers that
  // check reachable() before sending can fail fast with
  // Errc::unreachable instead. Cuts are a set, not a count: healing a
  // link clears it regardless of how many overlapping cuts named it.

  /// Drop src -> dst (and dst -> src unless `oneway`).
  void cut_link(NodeId src, NodeId dst, bool oneway = false);
  /// Cut every link between the two node sets, both directions -- a
  /// bisection of the fabric.
  void cut_bisection(const std::vector<NodeId>& a,
                     const std::vector<NodeId>& b);
  /// Cut every link to and from `n` (full isolation).
  void isolate(NodeId n);
  /// Restore src -> dst (and dst -> src unless `oneway`).
  void heal_link(NodeId src, NodeId dst, bool oneway = false);
  /// Restore every link to and from `n`.
  void heal_node(NodeId n);
  /// Restore all links.
  void heal_all();
  /// True when src -> dst currently delivers (loopback always does).
  bool reachable(NodeId src, NodeId dst) const {
    return src == dst || !cuts_.contains(link_key(src, dst));
  }
  /// Number of directed links currently cut.
  std::size_t cut_link_count() const { return cuts_.size(); }

  /// Instantaneous allocated rates.
  Rate node_up_rate(NodeId n) const { return up_rate_[n]; }
  Rate node_down_rate(NodeId n) const { return down_rate_[n]; }

  /// Time-weighted average utilization (fraction of NIC capacity) since
  /// construction, split by direction.
  double avg_up_utilization(NodeId n, SimTime t_end) const {
    return up_util_[n].average(t_end);
  }
  double avg_down_utilization(NodeId n, SimTime t_end) const {
    return down_util_[n].average(t_end);
  }
  double peak_down_utilization(NodeId n) const {
    return down_util_[n].peak();
  }
  double peak_up_utilization(NodeId n) const { return up_util_[n].peak(); }

  /// Utilization integrals for window averages (see TimeWeighted).
  double up_utilization_integral(NodeId n, SimTime t) const {
    return up_util_[n].integral_until(t);
  }
  double down_utilization_integral(NodeId n, SimTime t) const {
    return down_util_[n].integral_until(t);
  }

  /// Total bytes moved since construction (all flows).
  double total_bytes_moved() const { return bytes_moved_; }

  std::size_t active_flows() const { return flows_.size(); }

  /// Distinct (src, dst, cap, group) aggregates among the active flows
  /// (exposed for tests / telemetry; the water-filling loop is linear in
  /// this, not in active_flows()).
  std::size_t active_bundles() const { return bundles_.size(); }

  /// Test/diagnostic view of the active flows in arrival order.
  struct FlowInfo {
    NodeId src, dst;
    Rate cap;
    const CapGroup* group;
    Rate rate;
    double remaining;
  };
  std::vector<FlowInfo> flow_snapshot() const;

 private:
  struct Bundle;

  struct Flow {
    NodeId src, dst;
    double remaining;
    double cap;
    CapGroup* group;
    Bundle* bundle = nullptr;
    double rate = 0.0;
    sim::Event done;
    Flow(sim::Simulator& s, NodeId a, NodeId b, double rem, double c,
         CapGroup* g)
        : src(a), dst(b), remaining(rem), cap(c), group(g), done(s) {}
  };

  /// Aggregate of `count` flows identical in (src, dst, cap, group). The
  /// filling loop freezes whole bundles: its freeze conditions depend only
  /// on these key fields, so member flows always saturate together.
  struct Bundle {
    NodeId src = 0, dst = 0;
    double cap = 0.0;
    CapGroup* group = nullptr;
    std::size_t count = 0;
    double rate = 0.0;    // per-flow rate after the last recompute
    bool frozen = false;  // scratch for the filling loop
  };

  struct BundleKey {
    NodeId src, dst;
    double cap;
    CapGroup* group;
    bool operator==(const BundleKey&) const = default;
  };
  struct BundleKeyHash {
    std::size_t operator()(const BundleKey& k) const;
  };

  Bundle& join_bundle(NodeId src, NodeId dst, double cap, CapGroup* group);
  void leave_bundle(Bundle& b);

  static constexpr std::uint64_t link_key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  /// Apply a cut-set mutation under settle/recompute bracketing.
  void mutate_cuts(bool cut, NodeId src, NodeId dst, bool oneway);

  void settle();
  void recompute();

  /// Coalesce rate recomputation: many flows arriving at the same
  /// simulated instant (synchronized task waves, all-to-all phases) share
  /// one progressive-filling pass instead of paying O(flows x links)
  /// each. No simulated time passes in between, so results are identical.
  void schedule_recompute();

  sim::Simulator& sim_;
  std::vector<NicSpec> nics_;
  std::list<Flow> flows_;
  std::unordered_set<std::uint64_t> cuts_;  ///< directed links down
  // Bundles live in a node-based map (stable addresses for Flow::bundle).
  std::unordered_map<BundleKey, Bundle, BundleKeyHash> bundles_;
  std::vector<Rate> up_rate_, down_rate_;
  std::vector<TimeWeighted> up_util_, down_util_;
  SimTime last_update_ = 0.0;
  sim::EventId completion_event_ = 0;
  bool recompute_pending_ = false;
  double bytes_moved_ = 0.0;

  // Water-filling scratch, reused across recomputes. Residuals/counts are
  // dense per-port arrays, but only ports on the active lists are ever
  // initialized, charged, or reset; groups are stamped per pass.
  std::vector<double> wf_up_res_, wf_down_res_;
  std::vector<std::size_t> wf_up_cnt_, wf_down_cnt_;
  std::vector<NodeId> wf_up_active_, wf_down_active_;
  std::vector<Bundle*> wf_unfrozen_;
  std::vector<CapGroup*> wf_groups_;
  std::uint64_t wf_stamp_ = 0;

  // Observability handles (null when not attached; resolved once).
  obs::Observability* obs_ = nullptr;
  obs::Histogram* flow_lifetime_ = nullptr;  ///< seconds, bulk flows
  obs::Histogram* flow_fair_share_ = nullptr;  ///< achieved / best-case rate
  obs::Counter* msg_count_ = nullptr;
};

}  // namespace memfss::net
