// Erasure-coded storage over ShardedStore (DESIGN.md §14): the rt
// runtime's per-tenant Reed-Solomon redundancy mode.
//
// A logical key K with policy RS(k, m) is stored as k+m+1 *sibling*
// keys in the sharded store:
//
//   K '\x01' "rs*"          manifest: {k, m, original_len, payload crc32c}
//   K '\x01' "rs" <i>       shard i, i in [0, k+m) -- k data, m parity
//
// '\x01' cannot appear in client keys arriving over the wire protocol's
// printable key paths, and even if it does the sibling namespace only
// shadows keys that themselves end in the rs suffix. Each sibling is an
// ordinary store key, so it lands on its own store shard (FNV digest),
// is charged to the owning tenant's memory quota like any other key,
// and is individually evictable -- which is exactly what makes the
// decode path interesting: a get reassembles the payload from the k
// data siblings and, when some were evicted or their shard closed,
// reconstructs them from any k surviving siblings.
//
// Checksums: every checksum here is hash::crc32c, the one payload hash.
// The manifest carries the value's own checksum (Blob::checksum(),
// computed where the payload was born), so put() hashes no payload
// bytes itself; it codes straight into the k+m sibling buffers, each
// of which Blob::materialized checksums as its own stored value. get()
// hashes the reassembled payload exactly once, via Blob::materialized,
// over the bytes it actually read, and compares that with the manifest
// on both the fast and the reconstruct path.
//
// Copies: get() and put() read through ShardedStore::read, so no
// sibling or manifest Blob is copied out of the store. The manifest is
// parsed in place and each data sibling is copied straight into the
// payload (one copy per byte on a clean get). A degraded get reuses
// every sibling it has read: 1 + k + m store reads. The manifest field
// is u64 and holds the zero-extended 32-bit CRC, so a torn read whose
// bytes differ from the manifest's generation passes the check with
// probability 2^-32 per read.
//
// Buffers: put() takes its k+m sibling buffers and get() its payload
// buffer, and a degraded get() the sibling copies it decodes from, from
// the process buffer recycler (common/buffer_recycler.hpp, DESIGN.md
// §11), so once traffic is running none of them is allocated; the
// decode copies are parked again after the decode. put() keeps its
// per-sibling arrays on the stack for stripes of up to 16 siblings.
// A same-size overwrite copies each new sibling into its resident
// buffer and parks the new sibling's own buffer; evicted siblings and
// every payload a caller drops are parked too.
//
// Concurrency: one EC op issues several store ops, so composite ops are
// not atomic. get() verifies the manifest checksum after reassembly
// (retrying a torn read a couple of times before reporting
// corruption); last-writer-wins applies at the manifest. Concurrent
// writers to the *same* logical key can strand stale siblings --
// same-key write races are the caller's problem, as they already are
// for plain puts.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "erasure/reed_solomon.hpp"
#include "kvstore/blob.hpp"
#include "rt/sharded_store.hpp"

namespace memfss::rt::ec {

/// Sibling-key names for shard `idx` / the manifest of logical `key`.
std::string shard_key(std::string_view key, std::size_t idx);
std::string manifest_key(std::string_view key);

/// Manifest payload (24 bytes on the wire: magic "MFRS", version 2, k,
/// m, original length, payload CRC32C zero-extended to 64 bits).
/// parse_manifest rejects any other version.
struct Manifest {
  std::size_t k = 0;
  std::size_t m = 0;
  std::uint64_t len = 0;       ///< original payload length
  std::uint64_t checksum = 0;  ///< crc32c over the payload bytes
};

kvstore::Blob encode_manifest(const Manifest& mf);
std::optional<Manifest> parse_manifest(std::span<const std::uint8_t> bytes);

/// Encode `value` (materialized) into k+m shard siblings + manifest.
/// A ghost value (size without bytes) is invalid_argument: it has no
/// bytes to code. The manifest checksum is value.checksum(); a value
/// whose bytes no longer match its checksum is stored, but reads back
/// as corruption.
/// On any sibling-put failure (tenant quota, aggregate cap, closed
/// shard) the already-written siblings of this attempt are deleted and
/// the error returned, so a failed put never leaves a readable
/// half-stripe behind. A previously plain-stored value under `key` is
/// deleted once the stripe commits. `seq` receives the manifest put's
/// serialization index.
Status put(ShardedStore& store, std::string_view token, std::string_view key,
           const kvstore::Blob& value, const erasure::ReedSolomon& rs,
           std::uint64_t* seq = nullptr, std::uint32_t tenant = 0);

/// Read back the logical value: fast path gathers the k data siblings
/// into the payload; missing data siblings trigger reconstruction from
/// any k survivors. A manifest whose length no resident sibling can
/// hold (e.g. forged) reads as corruption. Falls back to a plain get
/// when no manifest exists (keys written before the tenant's policy was
/// enabled). `reconstructed` (optional) reports whether the slow path
/// ran. The slow path decodes with `rs` (the tenant's coder) when the
/// stripe's (k, m) matches it, and builds a coder for the stripe only
/// when it does not or `rs` is null.
Result<kvstore::Blob> get(ShardedStore& store, std::string_view token,
                          std::string_view key, std::uint64_t* seq = nullptr,
                          bool* reconstructed = nullptr,
                          const erasure::ReedSolomon* rs = nullptr);

/// Delete the manifest, every shard sibling, and any plain-stored value
/// under `key`. not_found only if none of them existed.
Status del(ShardedStore& store, std::string_view token, std::string_view key,
           std::uint64_t* seq = nullptr);

/// Whether `key` exists either as a stripe (manifest present) or plain.
Result<bool> exists(const ShardedStore& store, std::string_view token,
                    std::string_view key);

}  // namespace memfss::rt::ec
