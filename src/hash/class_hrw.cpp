#include "hash/class_hrw.hpp"

#include <cassert>
#include <limits>

#include "hash/hashes.hpp"

namespace memfss::hash {

namespace {
// Distinct salt so class-layer scores are independent of node-layer scores
// even when a class_id collides numerically with a node id.
constexpr std::uint64_t kClassSalt = 0xc1a55c1a55c1a55cull;

double unit_hash(std::uint32_t class_id, std::uint64_t digest) {
  const std::uint64_t h = mix64(kClassSalt ^ class_id, digest);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}
}  // namespace

double class_score(const NodeClass& c, std::uint64_t key_digest) {
  return unit_hash(c.class_id, key_digest) - c.weight;
}

std::size_t select_class(std::uint64_t key_digest,
                         std::span<const NodeClass> classes) {
  std::size_t best = classes.size();
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (classes[i].nodes.empty()) continue;
    const double s = class_score(classes[i], key_digest);
    // Ties broken on the lower class_id for determinism.
    if (best == classes.size() || s > best_score ||
        (s == best_score && classes[i].class_id < classes[best].class_id)) {
      best = i;
      best_score = s;
    }
  }
  assert(best < classes.size() && "at least one class must have nodes");
  return best;
}

Placement place(std::uint64_t key_digest, std::span<const NodeClass> classes) {
  const std::size_t ci = select_class(key_digest, classes);
  const NodeId node = hrw_select(key_digest, classes[ci].nodes);
  return {classes[ci].class_id, node};
}

std::vector<Placement> place_replicas(std::uint64_t key_digest,
                                      std::span<const NodeClass> classes,
                                      std::size_t count) {
  const std::size_t ci = select_class(key_digest, classes);
  auto nodes = hrw_top(key_digest, classes[ci].nodes, count);
  std::vector<Placement> out;
  out.reserve(nodes.size());
  for (NodeId n : nodes) out.push_back({classes[ci].class_id, n});
  return out;
}

std::vector<NodeId> rank_in_winning_class(std::uint64_t key_digest,
                                          std::span<const NodeClass> classes) {
  const std::size_t ci = select_class(key_digest, classes);
  return hrw_rank(key_digest, classes[ci].nodes);
}

}  // namespace memfss::hash
