#include "rt/ec.hpp"

#include <algorithm>
#include <vector>

#include "common/buffer_recycler.hpp"
#include "common/small_array.hpp"

namespace memfss::rt::ec {

namespace {

constexpr char kSep = '\x01';
constexpr std::size_t kManifestBytes = 24;
constexpr std::uint8_t kVersion = 2;  ///< 2: checksum is CRC32C (1: FNV-1a)

void put_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Per-sibling arrays of one stripe with no heap allocation for the
/// common widths; a wider stripe (k + m up to 255) allocates them.
template <class T>
using SiblingArray = SmallArray<T, 16>;

/// Best-effort sweep of shard siblings [from, to) -- rollback and
/// stale-stripe cleanup. Errors ignored: the keys may never have been
/// written.
void sweep_shards(ShardedStore& store, std::string_view token,
                  std::string_view key, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i)
    (void)store.del(token, shard_key(key, i));
}

}  // namespace

std::string shard_key(std::string_view key, std::size_t idx) {
  std::string k(key);
  k += kSep;
  k += "rs";
  k += std::to_string(idx);
  return k;
}

std::string manifest_key(std::string_view key) {
  std::string k(key);
  k += kSep;
  k += "rs*";
  return k;
}

kvstore::Blob encode_manifest(const Manifest& mf) {
  std::vector<std::uint8_t> b(kManifestBytes, 0);
  b[0] = 'M';
  b[1] = 'F';
  b[2] = 'R';
  b[3] = 'S';
  b[4] = kVersion;
  b[5] = static_cast<std::uint8_t>(mf.k);
  b[6] = static_cast<std::uint8_t>(mf.m);
  put_le64(&b[8], mf.len);
  put_le64(&b[16], mf.checksum);
  return kvstore::Blob::materialized(std::move(b));
}

std::optional<Manifest> parse_manifest(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kManifestBytes) return std::nullopt;
  if (bytes[0] != 'M' || bytes[1] != 'F' || bytes[2] != 'R' ||
      bytes[3] != 'S' || bytes[4] != kVersion)
    return std::nullopt;
  Manifest mf;
  mf.k = bytes[5];
  mf.m = bytes[6];
  if (mf.k < 1 || mf.k + mf.m > 255) return std::nullopt;
  mf.len = get_le64(&bytes[8]);
  mf.checksum = get_le64(&bytes[16]);
  return mf;
}

Status put(ShardedStore& store, std::string_view token, std::string_view key,
           const kvstore::Blob& value, const erasure::ReedSolomon& rs,
           std::uint64_t* seq, std::uint32_t tenant) {
  // A ghost has a size but no bytes to code; striping its empty byte
  // view would store a 0-byte value in its place.
  if (value.is_ghost())
    return {Errc::invalid_argument, "erasure coding needs the value's bytes"};
  const auto bytes = value.bytes();
  const std::size_t total = rs.total_shards();
  const std::size_t ss = rs.shard_size(bytes.size());

  // Remember how wide any stripe already under this key is, so stale
  // siblings beyond the new width get swept after commit.
  std::size_t old_total = 0;
  (void)store.read(token, manifest_key(key), [&](const kvstore::Blob& old) {
    if (auto mf = parse_manifest(old.bytes())) old_total = mf->k + mf->m;
  });

  if (!bytes.empty()) {
    // Code straight into the k+m sibling buffers, taken from the
    // recycler (encode_into writes every byte), and move each into its
    // own sibling key.
    SiblingArray<std::vector<std::uint8_t>> parts(total);
    SiblingArray<std::uint8_t*> ptrs(total);
    for (std::size_t i = 0; i < total; ++i) {
      parts[i] = take_buffer(ss);
      ptrs[i] = parts[i].data();
    }
    if (auto st = rs.encode_into(bytes, ptrs.data(), ss); !st.ok()) return st;
    for (std::size_t i = 0; i < total; ++i) {
      auto st = store.put(token, shard_key(key, i),
                          kvstore::Blob::materialized(std::move(parts[i])),
                          nullptr, tenant);
      if (!st.ok()) {
        // Never leave a half-written stripe readable: roll this
        // attempt's siblings back before reporting the failure.
        sweep_shards(store, token, key, 0, i + 1);
        return st;
      }
    }
  }

  // The manifest records the value's own checksum, computed where the
  // payload was born, so a put hashes no payload bytes itself. A value
  // whose bytes no longer match it reads back as corruption. No bytes
  // have CRC32C 0.
  const Manifest mf{rs.data_shards(), rs.parity_shards(), bytes.size(),
                    bytes.empty() ? 0 : value.checksum()};
  if (auto st = store.put(token, manifest_key(key), encode_manifest(mf), seq,
                          tenant);
      !st.ok()) {
    sweep_shards(store, token, key, 0, bytes.empty() ? 0 : total);
    return st;
  }

  // Committed: drop any plain value this stripe replaces, and any
  // siblings of a previous, wider stripe.
  (void)store.del(token, key);
  const std::size_t written = bytes.empty() ? 0 : total;
  if (old_total > written) sweep_shards(store, token, key, written, old_total);
  return {};
}

Result<kvstore::Blob> get(ShardedStore& store, std::string_view token,
                          std::string_view key, std::uint64_t* seq,
                          bool* reconstructed, const erasure::ReedSolomon* rs) {
  if (reconstructed) *reconstructed = false;
  // A get racing a put can observe a torn stripe (manifest of one
  // generation, shards of another); the manifest checksum catches that
  // and a bounded retry re-reads the settled state. Every retry sets
  // `last` first; it starts empty so a clean get builds no message.
  Status last;
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::optional<Manifest> mf;
    const auto mst = store.read(
        token, manifest_key(key),
        [&](const kvstore::Blob& b) { mf = parse_manifest(b.bytes()); }, seq);
    if (mst.code() == Errc::not_found)
      return store.get(token, key, seq);  // pre-policy plain value
    if (!mst.ok()) return mst.error();
    if (!mf) {
      last = {Errc::corruption, "bad erasure manifest"};
      continue;
    }
    if (mf->len == 0) return kvstore::Blob::materialized({});

    // Wrap-free, so a forged len near 2^64 cannot shrink the shard size
    // to one that empty siblings would match.
    const std::uint64_t ss = erasure::shard_size(mf->len, mf->k);
    const std::size_t total = mf->k + mf->m;
    // Leading data siblings are copied straight from the store into
    // the payload, a recycled buffer taken at the first sibling that
    // fits (so a forged length allocates nothing). From the first
    // missing one on, every sibling read is copied whole into a recycled
    // buffer in `held` for the decode, as is a sibling whose tail is
    // padding (the payload keeps only its first bytes); `held` is parked
    // once the attempt is done with it.
    std::vector<std::uint8_t> payload;
    auto append = [&](const std::uint8_t* src) {
      const std::size_t n =
          std::min<std::size_t>(ss, mf->len - payload.size());
      if (payload.empty()) payload = take_reserved(mf->len);
      payload.insert(payload.end(), src, src + n);
      return n;
    };
    SiblingArray<std::vector<std::uint8_t>> held(total);
    std::size_t gathered = 0;  // data siblings appended to the payload
    std::size_t survivors = 0;  // siblings read at the right size
    bool gap = false;
    auto fetch = [&](std::size_t i) {
      bool present = false;
      const auto st = store.read(
          token, shard_key(key, i), [&](const kvstore::Blob& b) {
            // A wrong-size sibling is a torn write: treat it as missing
            // so it cannot poison the decode.
            const auto bytes = b.bytes();
            if (bytes.size() != ss) return;
            present = true;
            ++survivors;
            // Bytes that go straight into the payload.
            const std::size_t n = gap ? 0 : append(bytes.data());
            if (n < ss) held[i] = take_copy(bytes);
          });
      if (i < mf->k && !gap) {
        if (present)
          ++gathered;
        else
          gap = true;
      }
      return st.code() != Errc::permission;
    };
    for (std::size_t i = 0; i < mf->k; ++i)
      if (!fetch(i)) return Error{Errc::permission, "bad token"};

    Status decoded;
    if (gap) {
      // Slow path: pull in parity and reconstruct from any k survivors,
      // reusing the data siblings already read. A missing sibling gets
      // an empty recycled buffer, which reconstruct() still counts as
      // missing and rebuilds into without allocating. Nothing is taken
      // with fewer than k survivors, when no real sibling need bound
      // `ss` (a forged length).
      for (std::size_t i = mf->k; i < total; ++i)
        if (!fetch(i)) return Error{Errc::permission, "bad token"};
      if (survivors < mf->k) {
        decoded = {Errc::corruption, "fewer than k siblings survive"};
      } else {
        for (std::size_t i = 0; i < total; ++i)
          if (held[i].empty())
            held[i] = i < gathered
                          ? take_copy({payload.data() + i * ss, ss})
                          : take_reserved(ss);
        // The caller's coder, unless the stripe was written under
        // another policy.
        std::optional<erasure::ReedSolomon> own;
        const erasure::ReedSolomon* coder = rs;
        if (!coder || coder->data_shards() != mf->k ||
            coder->parity_shards() != mf->m)
          coder = &own.emplace(mf->k, mf->m);
        decoded = coder->reconstruct(held.span());
      }
      if (decoded.ok()) {
        for (std::size_t i = gathered; i < mf->k; ++i)
          append(held[i].data());
        if (reconstructed) *reconstructed = true;
      }
    }
    for (auto& h : held.span()) park_buffer(std::move(h));
    if (!decoded.ok()) {
      last = decoded;
      continue;
    }

    // The one hash of the payload: materialized() computes it over the
    // bytes actually read, and it must match the manifest's.
    auto out = kvstore::Blob::materialized(std::move(payload));
    if (out.checksum() == mf->checksum) return out;
    last = {Errc::corruption, "stripe checksum mismatch"};
  }
  return last.error();
}

Status del(ShardedStore& store, std::string_view token, std::string_view key,
           std::uint64_t* seq) {
  std::size_t total = 0;
  const auto mst =
      store.read(token, manifest_key(key), [&](const kvstore::Blob& b) {
        if (auto mf = parse_manifest(b.bytes())) total = mf->k + mf->m;
      });
  if (mst.code() == Errc::permission) return {Errc::permission, "bad token"};
  bool found = false;
  if (mst.ok()) {
    // Manifest goes first so concurrent readers fall back cleanly
    // instead of observing a shrinking stripe.
    found = store.del(token, manifest_key(key), seq).ok();
    sweep_shards(store, token, key, 0, total);
  }
  const auto plain = store.del(token, key, found ? nullptr : seq);
  if (plain.code() == Errc::permission) return plain;
  found = found || plain.ok();
  return found ? Status{} : Status{Errc::not_found, "no such key"};
}

Result<bool> exists(const ShardedStore& store, std::string_view token,
                    std::string_view key) {
  auto mex = store.exists(token, manifest_key(key));
  if (!mex.ok()) return mex;
  if (mex.value()) return true;
  return store.exists(token, key);
}

}  // namespace memfss::rt::ec
