// Highest Random Weight (rendezvous) hashing [Thaler & Ravishankar 1998].
//
// Given a key and a set of server ids, every server is scored with a
// pseudo-random function of (server, key); the highest score wins. Adding
// or removing a server remaps only the keys that ranked it first --
// the same minimal-disruption property as consistent hashing, with no
// token ring to maintain.
//
// Every entry point exists in two forms: one taking the string key (which
// digests it first) and one taking a precomputed 64-bit digest. Callers
// that resolve the same key through several layers (class HRW, retry
// loops) digest once and pass the digest down, so the key is hashed
// exactly once per logical lookup.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace memfss::hash {

/// Score function selector. `mix64` is the library default;
/// `thaler_ravishankar` is the paper-faithful 31-bit LCG.
enum class ScoreFn { mix64, thaler_ravishankar };

/// Score of one (server, key) pair under the chosen function.
std::uint64_t hrw_score(NodeId server, std::string_view key,
                        ScoreFn fn = ScoreFn::mix64);
std::uint64_t hrw_score(NodeId server, std::uint64_t key_digest,
                        ScoreFn fn = ScoreFn::mix64);

/// The server with the highest score for `key`. Requires non-empty span.
NodeId hrw_select(std::string_view key, std::span<const NodeId> servers,
                  ScoreFn fn = ScoreFn::mix64);
NodeId hrw_select(std::uint64_t key_digest, std::span<const NodeId> servers,
                  ScoreFn fn = ScoreFn::mix64);

/// The top-`count` servers in descending score order (for replica
/// placement: primary, then 2nd/3rd highest per the paper's §III-E).
/// Returns min(count, servers.size()) ids.
std::vector<NodeId> hrw_top(std::string_view key,
                            std::span<const NodeId> servers, std::size_t count,
                            ScoreFn fn = ScoreFn::mix64);
std::vector<NodeId> hrw_top(std::uint64_t key_digest,
                            std::span<const NodeId> servers, std::size_t count,
                            ScoreFn fn = ScoreFn::mix64);

/// Full ranking, descending. Used by lazy data movement: if the data is
/// not on rank 0, probe rank 1, 2, ... and relocate when found.
std::vector<NodeId> hrw_rank(std::string_view key,
                             std::span<const NodeId> servers,
                             ScoreFn fn = ScoreFn::mix64);
std::vector<NodeId> hrw_rank(std::uint64_t key_digest,
                             std::span<const NodeId> servers,
                             ScoreFn fn = ScoreFn::mix64);

}  // namespace memfss::hash
