// ColdTier: the slow tier of the hot/cold memory hierarchy (DESIGN.md
// §16).
//
// The hot tier is the node's in-memory Store; the cold tier is the place
// cold data is demoted to -- a simulated local disk or far-memory segment
// with its own capacity and a bandwidth/latency cost model. It *is* a
// Store, built with no token (callers pass an empty one) and never
// closed, so it holds and charges bytes by the same rule as the hot
// store (Store::charge) and the tiering conservation invariant --
// hot_bytes + cold_bytes == accounted bytes -- holds at every event
// boundary without a second charge rule. Like Store it has no simulation
// dependencies: it reports device *costs* in seconds and the owner
// (kvstore::Server) charges them against simulated time. Tier-resident
// bytes are deliberately NOT part of the node's MemoryPool: demotion is
// what gives reclaimed RAM back to the tenant.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "kvstore/store.hpp"

namespace memfss::kvstore {

/// Cost model of a cold-tier device. Defaults approximate a fast NVMe /
/// far-memory segment: sub-millisecond access, GB/s-class streaming.
struct TierCosts {
  Rate read_bw = 2.0e9;             ///< device read bandwidth (B/s)
  Rate write_bw = 1.2e9;            ///< device write bandwidth (B/s)
  SimTime access_latency = 200e-6;  ///< fixed per-operation latency (s)
};

class ColdTier : public Store {
 public:
  explicit ColdTier(Bytes capacity, TierCosts costs = {})
      : Store(capacity), costs_(costs) {}

  /// Resident keys in sorted order (this hides Store::keys(), which is in
  /// hash order), so every scan over the tier -- evacuation among them --
  /// is deterministic without a sort at the call site.
  std::vector<std::string> keys() const;

  /// Device time to read / write a payload of `n` bytes.
  SimTime read_cost(Bytes n) const;
  SimTime write_cost(Bytes n) const;

 private:
  TierCosts costs_;
};

}  // namespace memfss::kvstore
