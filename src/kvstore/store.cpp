#include "kvstore/store.hpp"

#include <algorithm>

#include "hash/hashes.hpp"

namespace memfss::kvstore {

// --- Blob -----------------------------------------------------------------

Blob Blob::materialized(std::vector<std::uint8_t> bytes) {
  Blob b;
  b.size_ = bytes.size();
  b.checksum_ = memfss::hash::crc32c(bytes.data(), bytes.size());
  b.data_ = SharedBytes(std::move(bytes));
  return b;
}

Blob Blob::ghost(Bytes size, std::uint64_t tag) {
  Blob b;
  b.size_ = size;
  b.checksum_ = memfss::hash::mix64(size, tag);
  return b;
}

bool Blob::operator==(const Blob& o) const {
  const auto a = bytes(), b = o.bytes();
  return size_ == o.size_ && checksum_ == o.checksum_ &&
         a.size() == b.size() &&
         (a.data() == b.data() || std::equal(a.begin(), a.end(), b.begin()));
}

bool Blob::verify() const {
  const auto d = bytes();
  if (d.empty()) return !corrupted_;
  return memfss::hash::crc32c(d.data(), d.size()) == checksum_ && !corrupted_;
}

bool Blob::overwrite_same_size(const Blob& next) {
  // Copy on write: a reader holding a share must never see its bytes
  // change, so only the sole share is written in place.
  if (next.data_.empty() || next.size_ != size_ || !data_.sole())
    return false;
  const auto src = next.bytes();
  std::copy(src.begin(), src.end(), data_.mutable_bytes().begin());
  checksum_ = next.checksum_;
  corrupted_ = next.corrupted_;
  return true;
}

void Blob::corrupt_for_test() {
  corrupted_ = true;
  if (data_.empty()) return;
  if (!data_.sole()) data_ = SharedBytes(take_copy(bytes()));
  const auto d = data_.mutable_bytes();
  d[d.size() / 2] ^= 0x5a;
}

// --- Store ----------------------------------------------------------------

Store::Store(Bytes capacity, std::string auth_token)
    : capacity_(capacity), token_(std::move(auth_token)) {}

Status Store::check(std::string_view token) const {
  if (closed_) return {Errc::unavailable, "store closed"};
  if (!token_.empty() && token != token_) {
    ++stats_.auth_failures;
    return {Errc::permission, "bad auth token"};
  }
  return {};
}

Status Store::put(std::string_view token, std::string_view key, Blob value,
                  std::uint32_t owner, Delta* delta) {
  if (auto st = check(token); !st.ok()) return st;
  ++stats_.puts;
  const Bytes size = value.size();
  auto st = install(key, std::move(value), owner, delta);
  if (st.ok()) stats_.bytes_in += size;
  return st;
}

Store::Delta Store::delta_at(Map::const_iterator it, Bytes size) const {
  if (it == map_.end()) return {charge(size), 0, 0};
  return {charge(size), charge(it->second.blob.size()), it->second.owner};
}

Store::Delta Store::quote_put(std::string_view key, Bytes size) const {
  return delta_at(map_.find(std::string(key)), size);
}

Status Store::install(std::string_view key, Blob value, std::uint32_t owner,
                      Delta* delta) {
  auto it = map_.find(std::string(key));
  const Delta d = delta_at(it, value.size());
  if (used_ - d.released + d.charged > capacity_)
    return {Errc::out_of_memory, "store capacity exceeded"};
  used_ = used_ - d.released + d.charged;
  if (it == map_.end()) {
    map_.emplace(std::string(key), Entry{std::move(value), owner});
  } else {
    if (!it->second.blob.overwrite_same_size(value))
      it->second.blob = std::move(value);
    it->second.owner = owner;
  }
  if (delta) *delta = d;
  return {};
}

Blob Store::erase(Map::iterator it, Delta* delta) {
  const Delta d{0, charge(it->second.blob.size()), it->second.owner};
  used_ -= d.released;
  Blob b = std::move(it->second.blob);
  heat_.erase(it->first);
  map_.erase(it);
  if (delta) *delta = d;
  return b;
}

Result<const Blob*> Store::lookup(std::string_view token,
                                  std::string_view key) {
  if (auto st = check(token); !st.ok()) return st.error();
  ++stats_.gets;
  auto it = map_.find(std::string(key));
  if (it == map_.end()) {
    ++stats_.misses;
    return Error{Errc::not_found, std::string(key)};
  }
  ++stats_.hits;
  stats_.bytes_out += it->second.blob.size();
  return &it->second.blob;
}

Result<Blob> Store::get(std::string_view token, std::string_view key) {
  auto hit = lookup(token, key);
  if (!hit.ok()) return hit.error();
  return *hit.value();
}

Result<bool> Store::exists(std::string_view token,
                           std::string_view key) const {
  if (auto st = check(token); !st.ok()) return st.error();
  return map_.count(std::string(key)) > 0;
}

Status Store::del(std::string_view token, std::string_view key,
                  Delta* delta) {
  if (auto st = check(token); !st.ok()) return st;
  ++stats_.dels;
  auto it = map_.find(std::string(key));
  if (it == map_.end()) return {Errc::not_found, std::string(key)};
  (void)erase(it, delta);
  return {};
}

Result<Bytes> Store::value_size(std::string_view token,
                                std::string_view key) const {
  if (auto st = check(token); !st.ok()) return st.error();
  auto it = map_.find(std::string(key));
  if (it == map_.end()) return Error{Errc::not_found, std::string(key)};
  return it->second.blob.size();
}

std::vector<std::string> Store::keys() const {
  std::vector<std::string> out;
  out.reserve(map_.size());
  for (const auto& [k, v] : map_) out.push_back(k);
  return out;
}

Bytes Store::clear() {
  const Bytes freed = used_;
  map_.clear();
  heat_.clear();
  used_ = 0;
  return freed;
}

const Blob* Store::peek(std::string_view key) const {
  auto it = map_.find(std::string(key));
  return it == map_.end() ? nullptr : &it->second.blob;
}

Status Store::corrupt_for_test(std::string_view key) {
  auto it = map_.find(std::string(key));
  if (it == map_.end()) return {Errc::not_found, std::string(key)};
  it->second.blob.corrupt_for_test();
  return {};
}

std::optional<Blob> Store::drain(std::string_view key, Delta* delta) {
  auto it = map_.find(std::string(key));
  if (it == map_.end()) return std::nullopt;
  return erase(it, delta);
}

// --- access heat (tiered memory, DESIGN.md §16) -----------------------------

std::uint64_t Store::decay_heat(std::uint64_t counter, std::uint64_t from,
                                std::uint64_t to) {
  if (to <= from) return counter;  // clock never runs heat backwards
  const std::uint64_t delta = to - from;
  return delta >= 64 ? 0 : counter >> delta;
}

void Store::touch_heat(std::string_view key, std::uint64_t epoch) {
  auto& h = heat_[std::string(key)];
  h.counter =
      std::min(kHeatCap, decay_heat(h.counter, h.epoch, epoch) + kHeatQuantum);
  if (epoch > h.epoch) h.epoch = epoch;
  h.seq = ++heat_seq_;
}

std::uint64_t Store::heat_of(std::string_view key, std::uint64_t epoch) const {
  auto it = heat_.find(std::string(key));
  if (it == heat_.end()) return 0;
  return decay_heat(it->second.counter, it->second.epoch, epoch);
}

std::vector<std::string> Store::keys_by_heat(std::uint64_t epoch) const {
  struct Rank {
    std::uint64_t heat;
    std::uint64_t seq;
    const std::string* key;
  };
  std::vector<Rank> ranks;
  ranks.reserve(map_.size());
  for (const auto& [k, v] : map_) {
    std::uint64_t heat = 0, seq = 0;
    if (auto it = heat_.find(k); it != heat_.end()) {
      heat = decay_heat(it->second.counter, it->second.epoch, epoch);
      seq = it->second.seq;
    }
    ranks.push_back({heat, seq, &k});
  }
  // (heat, seq, key) is a total order over distinct keys, so the result
  // is independent of unordered_map iteration order -- demotion picks
  // replay bit-identically across runs and platforms.
  std::sort(ranks.begin(), ranks.end(), [](const Rank& a, const Rank& b) {
    if (a.heat != b.heat) return a.heat < b.heat;
    if (a.seq != b.seq) return a.seq < b.seq;
    return *a.key < *b.key;
  });
  std::vector<std::string> out;
  out.reserve(ranks.size());
  for (const auto& r : ranks) out.push_back(*r.key);
  return out;
}

Status Store::restore(std::string_view key, Blob value, Delta* delta) {
  return install(key, std::move(value), 0, delta);
}

}  // namespace memfss::kvstore
