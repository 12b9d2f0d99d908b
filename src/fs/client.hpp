// Client: the POSIX-facing layer of MemFSS (stands in for the FUSE
// module, §III-C). Bound to one *own* node; workflow tasks running on that
// node call it for all I/O.
//
// Responsibilities reproduced from the paper:
//   - striping: files are cut into stripe_size pieces so load is balanced
//     across the nodes of a class; the placement hash runs per stripe;
//   - routing: two-layer weighted HRW decides the server of each stripe,
//     using the *placement epoch recorded in the file's metadata* (so
//     files written before a victim-class change stay resolvable);
//   - lazy relocation: when a stripe is found on a lower-ranked node
//     after a membership change, it is moved to the top-ranked node in
//     the background, without stopping the computation (§V-C);
//   - redundancy: replication on the next-highest HRW ranks, or
//     Reed-Solomon shards across the class (§III-E).
//
// Files come in two flavours: *ghost* writes carry sizes only (cluster
// experiments, where datasets reach hundreds of GB) and *materialized*
// writes carry real bytes (tests, standalone examples) -- both exercise
// the same placement and transfer paths.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "fs/namespace.hpp"
#include "fs/placement.hpp"
#include "kvstore/blob.hpp"
#include "sim/task.hpp"

namespace memfss::fs {

class FileSystem;

// Client retry schedule: probe/put rounds before a stripe operation gives
// up, and the backoff between them (common/resilience.hpp backoff_delay,
// jittered by backoff_draw): kRetryBackoff for the first retry, doubling
// per round up to kRetryBackoffMax.
inline constexpr int kMaxRetries = 4;
inline constexpr SimTime kRetryBackoff = 0.02;
inline constexpr SimTime kRetryBackoffMax = 0.5;

class Client {
 public:
  Client(FileSystem& fs, NodeId node) : fs_(&fs), node_(node) {}

  NodeId node() const { return node_; }

  // --- namespace operations (forwarded to the metadata service) ----------
  sim::Task<Status> mkdirs(std::string path);
  sim::Task<Result<Stat>> stat(std::string path);
  sim::Task<Result<std::vector<std::string>>> readdir(std::string path);
  sim::Task<Status> rename(std::string from, std::string to);

  // --- data operations -----------------------------------------------------
  /// Streaming write of `size` accounted-only bytes. `tag` disambiguates
  /// content identity for checksum purposes. `extra_requests_per_mib`
  /// models chatty clients (BLAST) that issue many sub-stripe requests:
  /// the volume still moves in bulk, but per-request server costs and
  /// request-rate telemetry are charged.
  sim::Task<Status> write_file(std::string path, Bytes size,
                               std::uint64_t tag = 0,
                               double extra_requests_per_mib = 0.0);

  /// Write real bytes.
  sim::Task<Status> write_file_bytes(std::string path,
                                     std::vector<std::uint8_t> data);

  /// Read a whole file; returns the byte count delivered.
  sim::Task<Result<Bytes>> read_file(std::string path,
                                     double extra_requests_per_mib = 0.0);

  /// Read real bytes back (file must have been written materialized).
  sim::Task<Result<std::vector<std::uint8_t>>> read_file_bytes(
      std::string path);

  /// Delete the file and all of its stripes/replicas/shards.
  sim::Task<Status> unlink(std::string path);

 private:
  struct OpState {  // shared by the pipelined per-stripe subtasks
    Status status{};
    double extra_requests_per_mib = 0.0;
  };

  sim::Task<Status> write_impl(std::string path, Bytes size,
                               const std::vector<std::uint8_t>* data,
                               std::uint64_t tag,
                               double extra_requests_per_mib);
  // The per-stripe entry points carry the stripe key twice: the string
  // (kvstore key, logs) and its precomputed placement digest
  // (Namespace::stripe_key_digest), so retry/probe loops re-resolve
  // placement against live membership without re-hashing the key.
  /// One stripe, in any redundancy mode: the copies or shards, the
  /// stripe counter and the fs.write_stripe latency and span.
  sim::Task<> write_stripe(const ClassHrwPolicy& policy, const FileAttr& attr,
                           std::string key, std::uint64_t key_digest,
                           kvstore::Blob blob, OpState& state);
  sim::Task<> write_shards(const ClassHrwPolicy& policy, const FileAttr& attr,
                           const std::string& key, std::uint64_t key_digest,
                           kvstore::Blob blob, OpState& state);
  /// One stripe, in any redundancy mode, with the stripe counter and the
  /// fs.read_stripe latency and span.
  sim::Task<Result<kvstore::Blob>> read_stripe(const ClassHrwPolicy& policy,
                                               const FileAttr& attr,
                                               std::string key,
                                               std::uint64_t key_digest,
                                               double extra_requests_per_mib);
  sim::Task<Result<kvstore::Blob>> read_shards(const ClassHrwPolicy& policy,
                                               const FileAttr& attr,
                                               const std::string& key,
                                               std::uint64_t key_digest);
  sim::Task<Result<kvstore::Blob>> probe_ranked(const ClassHrwPolicy& policy,
                                                const FileAttr& attr,
                                                const std::string& key,
                                                std::uint64_t key_digest);

  /// Record one finished stripe operation in the deployment's metrics
  /// registry (latency histogram `hist`) and, when fs tracing is on, as a
  /// span named `span` with the stripe key as detail.
  void record_stripe_op(const char* hist, const char* span, SimTime t0,
                        const std::string& key);

  /// Write one replica (`idx` = replica rank) or one erasure shard
  /// (`idx` = shard index) with timeout + bounded retry. Placement is
  /// re-resolved on every attempt (from `base_digest`, the digest of the
  /// base stripe key), so a retry lands on the post-failure membership
  /// instead of the dead node.
  sim::Task<> put_stripe_copy(const ClassHrwPolicy& policy,
                              const FileAttr& attr,
                              std::uint64_t base_digest,
                              std::string store_key, std::size_t idx,
                              std::shared_ptr<kvstore::Blob> blob,
                              OpState& state);

  FileSystem* fs_;
  NodeId node_;
};

}  // namespace memfss::fs
