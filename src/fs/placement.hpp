// Data-placement policies for file stripes.
//
// MemFSS's policy is the two-layer weighted class HRW (hash/class_hrw.hpp).
// The original MemFS baseline (uniform consistent hashing over all nodes)
// and a plain uniform HRW are provided for the ablation benches; modulo
// placement serves metadata (§III-D).
//
// Placement epochs: the paper stores "the HRW weights we used to decide
// the file stripe placement" in file metadata so victim classes can be
// added later without breaking lookups. Here an *epoch* captures one
// weight configuration; files record their epoch id, and every epoch
// resolves class membership against the live member lists (so node
// removal *within* a class -- eviction, crash -- follows plain HRW
// minimal disruption across all epochs).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "fs/namespace.hpp"
#include "hash/class_hrw.hpp"
#include "hash/consistent.hpp"

namespace memfss::fs {

/// Weight of one class inside an epoch.
struct ClassWeight {
  std::uint32_t class_id = 0;
  double weight = 0.0;
};

/// One placement configuration (recorded per file in metadata).
struct PlacementEpoch {
  std::uint32_t id = 0;
  std::vector<ClassWeight> weights;
};

/// Live class membership, shared by all epochs.
class ClassMembership {
 public:
  void set_members(std::uint32_t class_id, std::vector<NodeId> nodes);
  void add_member(std::uint32_t class_id, NodeId node);
  void remove_member(std::uint32_t class_id, NodeId node);
  const std::vector<NodeId>& members(std::uint32_t class_id) const;
  bool has_class(std::uint32_t class_id) const;
  std::vector<NodeId> all_members() const;

  /// Bumped on every mutation (set_members / add_member / remove_member
  /// that changes a member list). Policies key their membership-snapshot
  /// caches on this, so a stale snapshot can never outlive a revocation.
  std::uint64_t generation() const { return generation_; }

 private:
  std::map<std::uint32_t, std::vector<NodeId>> members_;
  std::uint64_t generation_ = 0;
};

/// Strategy interface: map a stripe key to servers.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Top-`copies` distinct servers for the stripe (primary first).
  virtual std::vector<NodeId> place(std::string_view stripe_key,
                                    std::size_t copies) const = 0;

  /// Full probe order (for lazy relocation): every candidate server,
  /// best first. Default: place() with a large count.
  virtual std::vector<NodeId> probe_order(std::string_view stripe_key) const;

  virtual std::string describe() const = 0;
};

/// MemFSS: class layer weighted HRW, node layer plain HRW.
///
/// Digest fast path: the `std::uint64_t` overloads take a precomputed key
/// digest (Namespace::stripe_key_digest) and skip both the stripe-key
/// string formatting and the per-layer re-hash; they resolve to exactly
/// the same nodes as the string forms. The class-membership snapshot is
/// cached and rebuilt only when ClassMembership::generation() moves, so
/// steady-state placements copy no membership vectors; epoch weights are
/// captured at construction (a new epoch is a new policy object).
class ClassHrwPolicy final : public PlacementPolicy {
 public:
  ClassHrwPolicy(const PlacementEpoch& epoch, const ClassMembership& members);

  std::vector<NodeId> place(std::string_view stripe_key,
                            std::size_t copies) const override;
  std::vector<NodeId> place(std::uint64_t key_digest,
                            std::size_t copies) const;
  std::vector<NodeId> probe_order(std::string_view stripe_key) const override;
  std::vector<NodeId> probe_order(std::uint64_t key_digest) const;
  std::string describe() const override;

  /// The class that wins the stripe (exposed for tests / telemetry).
  std::uint32_t winning_class(std::string_view stripe_key) const;
  std::uint32_t winning_class(std::uint64_t key_digest) const;

 private:
  const std::vector<hash::NodeClass>& snapshot() const;
  PlacementEpoch epoch_;
  const ClassMembership& members_;
  // Membership snapshot cache, keyed on the membership generation. ~0 is
  // "never built" (generations count up from 0 and cannot reach it).
  mutable std::vector<hash::NodeClass> snapshot_cache_;
  mutable std::uint64_t snapshot_generation_ = ~0ull;
};

// --- Stripe layout -----------------------------------------------------------
//
// Where the copies of one stripe live. Every fs path that writes, reads,
// moves, repairs, scrubs or deletes stored copies asks these two functions
// instead of re-deriving the layout.

/// Full copies of each stripe a file keeps: `copies` for replicated files,
/// 1 otherwise (erasure files keep k+m shards instead).
std::size_t replica_count(const FileAttr& attr);

/// Expected node of every stored copy of a stripe, copy j at index j.
/// Erasure files: shard j of k+m sits on rank j (mod class size) of the
/// probe order. Other modes: place(digest, replica_count(attr)). Empty
/// when no node is eligible.
std::vector<NodeId> home_nodes(const ClassHrwPolicy& policy,
                               const FileAttr& attr, std::uint64_t digest);

/// One stored copy of a stripe: its expected node and its kvstore key.
struct StripeHome {
  NodeId node = kInvalidNode;
  std::string key;  ///< the stripe key, or Namespace::shard_key for shards
};

/// home_nodes() paired with each copy's key (`key` is the stripe key,
/// `digest` its Namespace::stripe_key_digest).
std::vector<StripeHome> stripe_homes(const ClassHrwPolicy& policy,
                                     const FileAttr& attr,
                                     std::string_view key,
                                     std::uint64_t digest);

/// Uniform HRW over one flat node set (no classes, no weights).
class UniformHrwPolicy final : public PlacementPolicy {
 public:
  explicit UniformHrwPolicy(std::vector<NodeId> nodes);
  std::vector<NodeId> place(std::string_view stripe_key,
                            std::size_t copies) const override;
  std::string describe() const override;

 private:
  std::vector<NodeId> nodes_;
};

/// MemFS baseline: consistent hashing ring with virtual nodes.
class ConsistentHashPolicy final : public PlacementPolicy {
 public:
  explicit ConsistentHashPolicy(const std::vector<NodeId>& nodes,
                                std::size_t vnodes = 128);
  std::vector<NodeId> place(std::string_view stripe_key,
                            std::size_t copies) const override;
  std::string describe() const override;

 private:
  hash::ConsistentRing ring_;
};

/// Modulo placement (metadata, §III-D): digest(key) mod n.
class ModuloPolicy final : public PlacementPolicy {
 public:
  explicit ModuloPolicy(std::vector<NodeId> nodes);
  std::vector<NodeId> place(std::string_view stripe_key,
                            std::size_t copies) const override;
  std::string describe() const override;

 private:
  std::vector<NodeId> nodes_;
};

}  // namespace memfss::fs
