// File-system namespace: the directory tree + inode table.
//
// Pure data structure (no simulation types) so it is unit-testable on its
// own; the MetadataService wraps it with distribution and cost accounting.
// Files record the placement epoch and striping/redundancy parameters used
// at creation -- the paper's "store the HRW weights in the metadata"
// design point (§III-D).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace memfss::fs {

using InodeId = std::uint64_t;

enum class RedundancyMode : std::uint8_t {
  none,        ///< single copy
  replicated,  ///< primary + (copies-1) replicas via HRW ranks
  erasure,     ///< Reed-Solomon k+m shards
};

struct FileAttr {
  Bytes size = 0;
  Bytes stripe_size = 0;
  std::uint32_t epoch = 0;          ///< placement epoch at creation
  RedundancyMode redundancy = RedundancyMode::none;
  std::uint8_t copies = 1;          ///< replicated: total copies
  std::uint8_t ec_k = 0, ec_m = 0;  ///< erasure: data/parity shards
};

struct Stat {
  InodeId inode = 0;
  bool is_directory = false;
  FileAttr attr;
  std::size_t stripe_count = 0;
};

class Namespace {
 public:
  Namespace();

  /// Create a directory; parents must exist (use mkdirs for mkdir -p).
  Status mkdir(std::string_view path);
  Status mkdirs(std::string_view path);

  /// Create a file with the given attributes; fails if it exists or the
  /// parent directory is missing.
  Result<InodeId> create(std::string_view path, const FileAttr& attr);

  Result<Stat> stat(std::string_view path) const;
  Result<Stat> stat(InodeId inode) const;
  bool exists(std::string_view path) const;

  /// Update size (on close of a streaming write).
  Status set_size(InodeId inode, Bytes size);

  /// Update the recorded placement epoch (after an active rebalance has
  /// moved the file's stripes to the current epoch's placement).
  Status set_epoch(InodeId inode, std::uint32_t epoch);

  /// All files in the tree as (path, stat), depth-first sorted order.
  std::vector<std::pair<std::string, Stat>> list_files() const;

  /// Directory listing (names only, sorted).
  Result<std::vector<std::string>> readdir(std::string_view path) const;

  /// Remove a file; returns its Stat so the caller can delete stripes.
  Result<Stat> unlink(std::string_view path);

  /// Remove an empty directory.
  Status rmdir(std::string_view path);

  /// Rename a file or directory. Destination must not exist; destination
  /// parent must. Stripe keys are inode-based, so data does not move.
  Status rename(std::string_view from, std::string_view to);

  std::size_t file_count() const { return file_count_; }
  std::size_t dir_count() const { return dir_count_; }

  /// Stripes needed for a file of `size` bytes with `stripe_size` striping
  /// (0-byte files occupy no stripes; the inode alone records existence).
  static std::size_t stripe_count(Bytes size, Bytes stripe_size);

  /// The storage key of stripe `index` of inode `ino` -- inode-based so
  /// rename never relocates data.
  static std::string stripe_key(InodeId ino, std::size_t index);

  /// The storage key of erasure shard `j` of a stripe: the stripe key with
  /// a ".s<j>" suffix.
  static std::string shard_key(std::string_view stripe_key, std::size_t j);

  /// Placement digest of stripe_key(ino, index), computed without forming
  /// the string: equals hash::key_digest(stripe_key(ino, index)) exactly,
  /// so digest-path placements select the same nodes as string-key ones.
  /// The string form remains the kvstore key and parse_stripe_key input.
  static std::uint64_t stripe_key_digest(InodeId ino, std::size_t index);

  /// A storage key parsed back to its file coordinates. Failure recovery
  /// depends on this inversion: the stripes a dead node held can only be
  /// learned from its key list, because HRW cannot answer "what was here"
  /// once the membership changes.
  struct StripeRef {
    InodeId inode = 0;
    std::size_t stripe = 0;
    bool is_shard = false;  ///< key names an erasure shard (".s<j>" suffix)
    std::size_t shard = 0;
  };

  /// Inverse of stripe_key and shard_key. Nullopt for keys in neither
  /// format.
  static std::optional<StripeRef> parse_stripe_key(std::string_view key);

 private:
  struct Node {
    InodeId id = 0;
    bool is_dir = false;
    FileAttr attr;
    std::map<std::string, InodeId> children;  // dirs only
    InodeId parent = 0;
    std::string name;
  };

  Result<InodeId> resolve(std::string_view path) const;
  Result<InodeId> resolve_parent(std::string_view path,
                                 std::string* leaf) const;
  const Node* get(InodeId id) const;
  Node* get(InodeId id);

  std::map<InodeId, Node> nodes_;
  InodeId next_id_ = 2;  // 1 is the root
  std::size_t file_count_ = 0;
  std::size_t dir_count_ = 1;  // root
};

}  // namespace memfss::fs
