#include "fs/metadata.hpp"

#include "common/str.hpp"

namespace memfss::fs {

// Cost of one metadata round trip.
constexpr Bytes kRequestBytes = 256;   ///< request envelope on the wire
constexpr Bytes kResponseBytes = 512;  ///< response envelope
constexpr double kCpuSeconds = 10e-6;  ///< shard-node CPU per operation

MetadataService::MetadataService(cluster::Cluster& cluster,
                                 std::vector<NodeId> own_nodes)
    : cluster_(cluster), shards_(std::move(own_nodes)) {}

NodeId MetadataService::shard_for(std::string_view path_or_key) const {
  return shards_.place(path_or_key, 1).front();
}

sim::Task<Status> MetadataService::round_trip(NodeId client, NodeId shard) {
  auto& fab = cluster_.fabric();
  if (!fab.reachable(client, shard) || !fab.reachable(shard, client))
    co_return Status{Errc::unreachable, "metadata shard unreachable"};
  ++ops_;
  co_await fab.message(client, shard, kRequestBytes);
  co_await cluster_.node(shard).cpu().consume(kCpuSeconds, 1.0);
  co_await fab.message(shard, client, kResponseBytes);
  co_return Status{};
}

sim::Task<Status> MetadataService::shard_call(NodeId client,
                                              std::string_view key) {
  const auto shards = shards_.probe_order(key);
  Status last{Errc::unreachable, "no metadata shard reachable"};
  for (std::size_t i = 0; i < shards.size(); ++i) {
    last = co_await round_trip(client, shards[i]);
    if (last.ok()) {
      if (i > 0) ++failovers_;
      co_return last;
    }
  }
  co_return last;
}

sim::Task<Status> MetadataService::mkdirs(NodeId client, std::string path) {
  if (auto st = co_await shard_call(client, path); !st.ok())
    co_return st;
  co_return ns_.mkdirs(path);
}

sim::Task<Result<InodeId>> MetadataService::create(NodeId client,
                                                   std::string path,
                                                   FileAttr attr) {
  if (auto st = co_await shard_call(client, path); !st.ok())
    co_return st.error();
  co_return ns_.create(path, attr);
}

sim::Task<Result<Stat>> MetadataService::stat(NodeId client,
                                              std::string path) {
  if (auto st = co_await shard_call(client, path); !st.ok())
    co_return st.error();
  co_return ns_.stat(path);
}

sim::Task<Status> MetadataService::set_size(NodeId client, InodeId inode,
                                            Bytes size) {
  const auto key = strformat("i%llu", (unsigned long long)inode);
  if (auto st = co_await shard_call(client, key); !st.ok())
    co_return st;
  co_return ns_.set_size(inode, size);
}

sim::Task<Status> MetadataService::set_epoch(NodeId client, InodeId inode,
                                             std::uint32_t epoch) {
  const auto key = strformat("i%llu", (unsigned long long)inode);
  if (auto st = co_await shard_call(client, key); !st.ok())
    co_return st;
  co_return ns_.set_epoch(inode, epoch);
}

sim::Task<Result<std::vector<std::string>>> MetadataService::readdir(
    NodeId client, std::string path) {
  if (auto st = co_await shard_call(client, path); !st.ok())
    co_return st.error();
  co_return ns_.readdir(path);
}

sim::Task<Result<Stat>> MetadataService::unlink(NodeId client,
                                                std::string path) {
  if (auto st = co_await shard_call(client, path); !st.ok())
    co_return st.error();
  co_return ns_.unlink(path);
}

sim::Task<Status> MetadataService::rename(NodeId client, std::string from,
                                          std::string to) {
  // Touches the shards of both names.
  if (auto st = co_await shard_call(client, from); !st.ok())
    co_return st;
  if (auto st = co_await shard_call(client, to); !st.ok())
    co_return st;
  co_return ns_.rename(from, to);
}

}  // namespace memfss::fs
