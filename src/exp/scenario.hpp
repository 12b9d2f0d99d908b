// Scenario: one self-contained simulated deployment in the paper's shape.
//
// DAS-5-like cluster of `total_nodes`; the first `own_nodes` are reserved
// by the MemFSS user, the rest by a tenant. Tenant nodes register
// scavenge offers (memory cap + container bandwidth cap) in the
// reservation system's secondary queue; MemFSS claims them and forms
// victim class 1 with the weight matching `own_fraction` (alpha).
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/reservation.hpp"
#include "fs/filesystem.hpp"
#include "sim/simulator.hpp"

namespace memfss::exp {

struct ScenarioParams {
  std::size_t total_nodes = 40;
  std::size_t own_nodes = 8;
  bool with_victims = true;        ///< false: MemFSS uses own nodes only
  double own_fraction = 0.25;      ///< alpha: share of data on own nodes
  Bytes victim_memory_cap = 10 * units::GiB;
  Rate victim_net_cap = 500e6;     ///< container bandwidth ceiling (B/s)
  Bytes own_store_capacity = 48 * units::GiB;
  Bytes stripe_size = 16 * units::MiB;
  fs::RedundancyMode redundancy = fs::RedundancyMode::none;
  std::uint8_t copies = 2;
  cluster::NodeSpec node_spec{};
  /// Cold-tier capacity per victim node; 0 keeps tiering off (untiered
  /// runs stay bit-identical -- see FileSystemConfig::victim_tier_capacity).
  Bytes victim_tier_capacity = 0;
};

/// Victim-monitor threshold of every experiment that arms the monitors,
/// and the pool fill a synthetic tenant pressure event allocates up to
/// (fractions of a victim node's memory pool).
inline constexpr double kMonitorThreshold = 0.85;
inline constexpr double kPressureFill = 0.95;

class Scenario {
 public:
  explicit Scenario(const ScenarioParams& params);

  sim::Simulator& sim() { return sim_; }
  cluster::Cluster& cluster() { return *cluster_; }
  fs::FileSystem& fs() { return *fs_; }

  const std::vector<NodeId>& own_nodes() const { return own_; }
  const std::vector<NodeId>& victim_nodes() const { return victims_; }
  const ScenarioParams& params() const { return params_; }

  /// Release the MemFSS reservation and return its node-hours.
  double release_own_reservation();

 private:
  ScenarioParams params_;
  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::ReservationSystem> resv_;
  cluster::Reservation own_resv_;
  cluster::Reservation tenant_resv_;
  std::vector<NodeId> own_, victims_;
  std::unique_ptr<fs::FileSystem> fs_;
};

}  // namespace memfss::exp
