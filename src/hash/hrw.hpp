// Highest Random Weight (rendezvous) hashing [Thaler & Ravishankar 1998].
//
// Given a key and a set of server ids, every server is scored with a
// pseudo-random function of (server, key); the highest score wins. Adding
// or removing a server remaps only the keys that ranked it first --
// the same minimal-disruption property as consistent hashing, with no
// token ring to maintain.
//
// The score is mix64(server, key_digest) (hashes.hpp). Every entry point
// takes the key's 64-bit digest (hash::key_digest): callers that resolve
// the same key through several layers (class HRW, retry loops) digest
// once and pass the digest down, so the key is hashed exactly once per
// logical lookup.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace memfss::hash {

/// Score of one (server, key) pair.
std::uint64_t hrw_score(NodeId server, std::uint64_t key_digest);

/// The server with the highest score for the key. Requires non-empty span.
NodeId hrw_select(std::uint64_t key_digest, std::span<const NodeId> servers);

/// The top-`count` servers in descending score order (for replica
/// placement: primary, then 2nd/3rd highest per the paper's §III-E).
/// Returns min(count, servers.size()) ids.
std::vector<NodeId> hrw_top(std::uint64_t key_digest,
                            std::span<const NodeId> servers, std::size_t count);

/// Full ranking, descending. Used by lazy data movement: if the data is
/// not on rank 0, probe rank 1, 2, ... and relocate when found.
std::vector<NodeId> hrw_rank(std::uint64_t key_digest,
                             std::span<const NodeId> servers);

}  // namespace memfss::hash
