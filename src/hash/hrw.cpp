#include "hash/hrw.hpp"

#include <algorithm>
#include <cassert>

#include "hash/hashes.hpp"

namespace memfss::hash {

std::uint64_t hrw_score(NodeId server, std::uint64_t key_digest) {
  return mix64(server, key_digest);
}

NodeId hrw_select(std::uint64_t key_digest, std::span<const NodeId> servers) {
  assert(!servers.empty());
  NodeId best = servers[0];
  std::uint64_t best_score = 0;
  bool first = true;
  for (NodeId s : servers) {
    const std::uint64_t score = hrw_score(s, key_digest);
    // Deterministic tie-break on the lower node id keeps results stable
    // regardless of input ordering.
    if (first || score > best_score || (score == best_score && s < best)) {
      best = s;
      best_score = score;
      first = false;
    }
  }
  return best;
}

namespace {

std::vector<std::pair<std::uint64_t, NodeId>> scored(
    std::uint64_t digest, std::span<const NodeId> servers, std::size_t count) {
  std::vector<std::pair<std::uint64_t, NodeId>> v;
  v.reserve(servers.size());
  for (NodeId s : servers) v.emplace_back(hrw_score(s, digest), s);
  // Descending score, ascending id on ties -- a strict total order, so a
  // partial selection of the leading `count` entries matches the full sort
  // exactly when fewer than all ranks are requested.
  const auto less = [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  if (count < v.size()) {
    std::partial_sort(v.begin(),
                      v.begin() + static_cast<std::ptrdiff_t>(count), v.end(),
                      less);
  } else {
    std::sort(v.begin(), v.end(), less);
  }
  return v;
}

}  // namespace

std::vector<NodeId> hrw_top(std::uint64_t key_digest,
                            std::span<const NodeId> servers,
                            std::size_t count) {
  auto v = scored(key_digest, servers, count);
  std::vector<NodeId> out;
  out.reserve(std::min(count, v.size()));
  for (std::size_t i = 0; i < v.size() && i < count; ++i)
    out.push_back(v[i].second);
  return out;
}

std::vector<NodeId> hrw_rank(std::uint64_t key_digest,
                             std::span<const NodeId> servers) {
  return hrw_top(key_digest, servers, servers.size());
}

}  // namespace memfss::hash
