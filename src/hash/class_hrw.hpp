// The MemFSS two-layer weighted HRW placement scheme (paper §III-B).
//
// Layer 1 (class layer): every node class (own, victim, victim-2, ...)
// gets a score H(class_id, key) - weight, where H is uniform on [0,1) and
// `weight` is the class's subtractive weight. The class with the highest
// score stores the key. Larger weight => lower share of keys: this is the
// knob that caps how much data (and network traffic) flows to victims.
//
// Layer 2 (node layer): plain, unweighted HRW over the nodes of the
// winning class distributes keys uniformly inside the class, which keeps
// per-node load (and hence per-victim interference) balanced and
// predictable.
//
// The scheme generalizes to any number of classes; weights for target data
// fractions are produced by hash/weight_solver.hpp.
//
// Both layers score with mix64 (hashes.hpp), and every entry point takes
// the key's 64-bit digest (hash::key_digest), so the key is hashed
// exactly once per placement: the digest flows through the class layer
// and the node layer (hrw.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "hash/hrw.hpp"

namespace memfss::hash {

/// One class of nodes with a placement weight.
struct NodeClass {
  std::uint32_t class_id = 0;  ///< stable id, hashed in the class layer
  double weight = 0.0;         ///< subtractive weight in [0, 1]
  std::vector<NodeId> nodes;   ///< members; uniform HRW inside
};

struct Placement {
  std::uint32_t class_id = 0;
  NodeId node = kInvalidNode;
};

/// Layer-1 score of a class for a key: H(class_id, key) - weight, with H
/// uniform on [0, 1).
double class_score(const NodeClass& c, std::uint64_t key_digest);

/// Winning class index for the key among `classes` (layer 1 only).
/// Classes with no nodes are skipped. Requires at least one non-empty class.
std::size_t select_class(std::uint64_t key_digest,
                         std::span<const NodeClass> classes);

/// Full two-layer placement: class by weighted score, node by plain HRW.
Placement place(std::uint64_t key_digest, std::span<const NodeClass> classes);

/// Primary + (count-1) replicas: the top-`count` nodes of the winning
/// class (paper §III-E replication on 2nd/3rd highest scores).
std::vector<Placement> place_replicas(std::uint64_t key_digest,
                                      std::span<const NodeClass> classes,
                                      std::size_t count);

/// Descending node ranking within the winning class -- the probe order for
/// lazy data movement after membership changes (paper §V-C).
std::vector<NodeId> rank_in_winning_class(std::uint64_t key_digest,
                                          std::span<const NodeClass> classes);

}  // namespace memfss::hash
