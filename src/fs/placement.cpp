#include "fs/placement.hpp"

#include <algorithm>
#include <cassert>

#include "common/str.hpp"
#include "hash/hashes.hpp"
#include "hash/hrw.hpp"

namespace memfss::fs {

// --- ClassMembership --------------------------------------------------------

void ClassMembership::set_members(std::uint32_t class_id,
                                  std::vector<NodeId> nodes) {
  members_[class_id] = std::move(nodes);
  ++generation_;
}

void ClassMembership::add_member(std::uint32_t class_id, NodeId node) {
  auto& v = members_[class_id];
  if (std::find(v.begin(), v.end(), node) == v.end()) {
    v.push_back(node);
    ++generation_;
  }
}

void ClassMembership::remove_member(std::uint32_t class_id, NodeId node) {
  auto it = members_.find(class_id);
  if (it == members_.end()) return;
  auto& v = it->second;
  const auto end = std::remove(v.begin(), v.end(), node);
  if (end != v.end()) {
    v.erase(end, v.end());
    ++generation_;
  }
}

const std::vector<NodeId>& ClassMembership::members(
    std::uint32_t class_id) const {
  static const std::vector<NodeId> kEmpty;
  auto it = members_.find(class_id);
  return it == members_.end() ? kEmpty : it->second;
}

bool ClassMembership::has_class(std::uint32_t class_id) const {
  return members_.count(class_id) > 0;
}

std::vector<NodeId> ClassMembership::all_members() const {
  std::vector<NodeId> out;
  for (const auto& [id, nodes] : members_)
    out.insert(out.end(), nodes.begin(), nodes.end());
  return out;
}

// --- PlacementPolicy --------------------------------------------------------

std::vector<NodeId> PlacementPolicy::probe_order(
    std::string_view stripe_key) const {
  return place(stripe_key, static_cast<std::size_t>(-1));
}

// --- ClassHrwPolicy ---------------------------------------------------------

ClassHrwPolicy::ClassHrwPolicy(const PlacementEpoch& epoch,
                               const ClassMembership& members)
    : epoch_(epoch), members_(members) {}

const std::vector<hash::NodeClass>& ClassHrwPolicy::snapshot() const {
  // Rebuild only when the live membership has mutated since the cached
  // copy was taken; placements between membership changes share one
  // snapshot instead of re-copying every member vector per call.
  const std::uint64_t gen = members_.generation();
  if (snapshot_generation_ != gen) {
    snapshot_cache_.clear();
    snapshot_cache_.reserve(epoch_.weights.size());
    for (const auto& cw : epoch_.weights) {
      snapshot_cache_.push_back(hash::NodeClass{
          cw.class_id, cw.weight, members_.members(cw.class_id)});
    }
    snapshot_generation_ = gen;
  }
  return snapshot_cache_;
}

std::vector<NodeId> ClassHrwPolicy::place(std::uint64_t key_digest,
                                          std::size_t copies) const {
  const auto& classes = snapshot();
  auto placements = hash::place_replicas(key_digest, classes, copies);
  std::vector<NodeId> out;
  out.reserve(placements.size());
  for (const auto& p : placements) out.push_back(p.node);
  return out;
}

std::vector<NodeId> ClassHrwPolicy::place(std::string_view stripe_key,
                                          std::size_t copies) const {
  return place(hash::key_digest(stripe_key), copies);
}

std::vector<NodeId> ClassHrwPolicy::probe_order(
    std::uint64_t key_digest) const {
  return hash::rank_in_winning_class(key_digest, snapshot());
}

std::vector<NodeId> ClassHrwPolicy::probe_order(
    std::string_view stripe_key) const {
  return probe_order(hash::key_digest(stripe_key));
}

std::uint32_t ClassHrwPolicy::winning_class(std::uint64_t key_digest) const {
  const auto& classes = snapshot();
  const std::size_t i = hash::select_class(key_digest, classes);
  return classes[i].class_id;
}

std::uint32_t ClassHrwPolicy::winning_class(
    std::string_view stripe_key) const {
  return winning_class(hash::key_digest(stripe_key));
}

std::string ClassHrwPolicy::describe() const {
  std::string s = strformat("class-hrw(epoch=%u", epoch_.id);
  for (const auto& cw : epoch_.weights)
    s += strformat(", c%u:w=%.4f:n=%zu", cw.class_id, cw.weight,
                   members_.members(cw.class_id).size());
  return s + ")";
}

// --- Stripe layout -----------------------------------------------------------

std::size_t replica_count(const FileAttr& attr) {
  return attr.redundancy == RedundancyMode::replicated
             ? std::max<std::size_t>(1, attr.copies)
             : 1;
}

std::vector<NodeId> home_nodes(const ClassHrwPolicy& policy,
                               const FileAttr& attr, std::uint64_t digest) {
  if (attr.redundancy != RedundancyMode::erasure)
    return policy.place(digest, replica_count(attr));
  const auto order = policy.probe_order(digest);
  std::vector<NodeId> out;
  for (std::size_t j = 0; !order.empty() && j < attr.ec_k + attr.ec_m; ++j)
    out.push_back(order[j % order.size()]);
  return out;
}

std::vector<StripeHome> stripe_homes(const ClassHrwPolicy& policy,
                                     const FileAttr& attr,
                                     std::string_view key,
                                     std::uint64_t digest) {
  const bool sharded = attr.redundancy == RedundancyMode::erasure;
  const auto nodes = home_nodes(policy, attr, digest);
  std::vector<StripeHome> out;
  out.reserve(nodes.size());
  for (std::size_t j = 0; j < nodes.size(); ++j)
    out.push_back({nodes[j], sharded ? Namespace::shard_key(key, j)
                                     : std::string(key)});
  return out;
}

// --- UniformHrwPolicy -------------------------------------------------------

UniformHrwPolicy::UniformHrwPolicy(std::vector<NodeId> nodes)
    : nodes_(std::move(nodes)) {
  assert(!nodes_.empty());
}

std::vector<NodeId> UniformHrwPolicy::place(std::string_view stripe_key,
                                            std::size_t copies) const {
  return hash::hrw_top(hash::key_digest(stripe_key), nodes_, copies);
}

std::string UniformHrwPolicy::describe() const {
  return strformat("uniform-hrw(n=%zu)", nodes_.size());
}

// --- ConsistentHashPolicy ---------------------------------------------------

ConsistentHashPolicy::ConsistentHashPolicy(const std::vector<NodeId>& nodes,
                                           std::size_t vnodes)
    : ring_(vnodes) {
  for (NodeId n : nodes) ring_.add_node(n);
}

std::vector<NodeId> ConsistentHashPolicy::place(std::string_view stripe_key,
                                                std::size_t copies) const {
  return ring_.select_top(stripe_key, copies);
}

std::string ConsistentHashPolicy::describe() const {
  return strformat("consistent-hash(n=%zu)", ring_.node_count());
}

// --- ModuloPolicy -------------------------------------------------------------

ModuloPolicy::ModuloPolicy(std::vector<NodeId> nodes)
    : nodes_(std::move(nodes)) {
  assert(!nodes_.empty());
}

std::vector<NodeId> ModuloPolicy::place(std::string_view stripe_key,
                                        std::size_t copies) const {
  const std::uint64_t d = hash::key_digest(stripe_key);
  std::vector<NodeId> out;
  const std::size_t n = nodes_.size();
  for (std::size_t i = 0; i < std::min(copies, n); ++i)
    out.push_back(nodes_[(d + i) % n]);
  return out;
}

std::string ModuloPolicy::describe() const {
  return strformat("modulo(n=%zu)", nodes_.size());
}

}  // namespace memfss::fs
