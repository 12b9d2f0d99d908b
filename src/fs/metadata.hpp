// Distributed metadata service (paper §III-D).
//
// Metadata lives only on *own* nodes -- they are under the user's control
// (less likely to vanish) and close to the task clients, which matters
// because metadata operations are latency-bound. Records are sharded over
// the own nodes by modulo hashing of the path (inode id for inode-keyed
// updates); each operation charges a request/response message pair on the
// fabric and a small CPU cost on the shard node.
//
// Partition tolerance: metadata sessions are heartbeat-monitored, so a
// client never issues a round trip to a shard it cannot exchange traffic
// with (either direction -- a half-open session is torn down like a dead
// one). Instead it fails over to the next own node in shard order, and
// only when *no* shard replica is reachable does the operation fail with
// Errc::unreachable. Contrast the data path (kvstore::Server), which
// deliberately models the asymmetric signature: a cut request link fails
// fast, a cut reply link stalls into an RPC timeout.
//
// The namespace tree itself is one process-wide structure here: what the
// simulation must reproduce is the *cost and placement* of metadata
// traffic, not serialized tree blobs (see DESIGN.md substitution table).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/result.hpp"
#include "fs/namespace.hpp"
#include "fs/placement.hpp"
#include "net/fabric.hpp"
#include "sim/task.hpp"

namespace memfss::fs {

class MetadataService {
 public:
  MetadataService(cluster::Cluster& cluster, std::vector<NodeId> own_nodes);

  /// Shard node for a path-keyed operation: rank 0 of the ModuloPolicy
  /// over the own nodes.
  NodeId shard_for(std::string_view path_or_key) const;

  sim::Task<Status> mkdirs(NodeId client, std::string path);
  sim::Task<Result<InodeId>> create(NodeId client, std::string path,
                                    FileAttr attr);
  sim::Task<Result<Stat>> stat(NodeId client, std::string path);
  sim::Task<Status> set_size(NodeId client, InodeId inode, Bytes size);
  sim::Task<Status> set_epoch(NodeId client, InodeId inode,
                              std::uint32_t epoch);
  sim::Task<Result<std::vector<std::string>>> readdir(NodeId client,
                                                      std::string path);
  sim::Task<Result<Stat>> unlink(NodeId client, std::string path);
  sim::Task<Status> rename(NodeId client, std::string from, std::string to);

  /// Direct (cost-free) access for tests and the harness.
  Namespace& ns() { return ns_; }
  const Namespace& ns() const { return ns_; }

  /// Administrative reset of the namespace (experiment repetitions).
  void reset() { ns_ = Namespace{}; }

  /// Elasticity: replace the own-node set the metadata shards map onto.
  /// (Record redistribution is instantaneous in the model; the moved
  /// volume is metadata-sized and negligible next to data traffic.)
  void set_own_nodes(std::vector<NodeId> own_nodes) {
    shards_ = ModuloPolicy(std::move(own_nodes));
  }

  std::uint64_t operation_count() const { return ops_; }
  /// Round trips served by a non-primary shard because the primary was
  /// behind a cut link (partition-tolerance telemetry).
  std::uint64_t failover_count() const { return failovers_; }

 private:
  /// One metadata round trip: request to the shard, CPU, response.
  /// Fails fast with Errc::unreachable (zero simulated cost) when either
  /// direction of the client<->shard link is cut.
  sim::Task<Status> round_trip(NodeId client, NodeId shard);

  /// Round trip against the key's primary shard, failing over through
  /// the remaining own nodes in shard order when links are cut.
  sim::Task<Status> shard_call(NodeId client, std::string_view key);

  cluster::Cluster& cluster_;
  ModuloPolicy shards_;  ///< over the own nodes
  Namespace ns_;
  std::uint64_t ops_ = 0;
  std::uint64_t failovers_ = 0;
};

}  // namespace memfss::fs
