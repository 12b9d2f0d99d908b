#include "erasure/reed_solomon.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/small_array.hpp"
#include "erasure/gf256.hpp"
#include "erasure/gf256_simd.hpp"

namespace memfss::erasure {

namespace {

/// Stripe width up to which reconstruct() keeps its arrays inline.
constexpr std::size_t kInlineShards = 16;

// Build the systematic encoding matrix: start from the (k+m) x k
// Vandermonde V[r][c] = r^c (rows are distinct evaluation points, so every
// k x k submatrix is invertible), then right-multiply by inv(top k x k) so
// the top block becomes the identity. The "any k rows invertible" property
// is preserved under right-multiplication by an invertible matrix.
std::vector<std::uint8_t> systematic_matrix(std::size_t k, std::size_t m) {
  const std::size_t n = k + m;
  std::vector<std::uint8_t> v(n * k);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < k; ++c)
      v[r * k + c] = GF256::pow(static_cast<std::uint8_t>(r), static_cast<unsigned>(c));

  std::vector<std::uint8_t> top(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k * k));
  const bool ok = gf256_invert_matrix(top, k);
  assert(ok && "Vandermonde top block must be invertible");
  (void)ok;

  std::vector<std::uint8_t> out(n * k, 0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < k; ++c) {
      std::uint8_t acc = 0;
      for (std::size_t i = 0; i < k; ++i)
        acc ^= GF256::mul(v[r * k + i], top[i * k + c]);
      out[r * k + c] = acc;
    }
  return out;
}

}  // namespace

ReedSolomon::ReedSolomon(std::size_t k, std::size_t m,
                         const GF256Kernels* kernels)
    : k_(k), m_(m), kernels_(kernels ? kernels : &gf256_active_kernels()) {
  assert(k_ >= 1 && k_ + m_ <= 255);
  matrix_ = systematic_matrix(k_, m_);
}

const char* ReedSolomon::kernel_name() const { return kernels_->name; }

Status ReedSolomon::encode_into(std::span<const std::uint8_t> data,
                                std::uint8_t* const* shards,
                                std::size_t ss) const {
  if (ss != shard_size(data.size()))
    return {Errc::invalid_argument, "shard buffer size mismatch"};
  // Data shards: verbatim slices, zero-padded.
  for (std::size_t i = 0; i < k_; ++i) {
    const std::size_t off = i * ss;
    const std::size_t n =
        off < data.size() ? std::min(ss, data.size() - off) : 0;
    if (n > 0) std::memcpy(shards[i], data.data() + off, n);
    if (n < ss) std::memset(shards[i] + n, 0, ss - n);
  }
  // Parity shards: one fused row pass each over the k data shards
  // (row-major matrix walk; dst loaded/stored once regardless of k).
  for (std::size_t p = 0; p < m_; ++p)
    kernels_->mul_row_acc(shards[k_ + p], shards, row(k_ + p), k_, ss,
                          /*accumulate=*/false);
  return {};
}

std::vector<std::vector<std::uint8_t>> ReedSolomon::encode(
    std::span<const std::uint8_t> data) const {
  const std::size_t ss = shard_size(data.size());
  std::vector<std::vector<std::uint8_t>> shards(total_shards());
  std::vector<std::uint8_t*> ptrs(total_shards());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards[i].resize(ss);
    ptrs[i] = shards[i].data();
  }
  const auto st = encode_into(data, ptrs.data(), ss);
  assert(st.ok());
  (void)st;
  return shards;
}

Status ReedSolomon::reconstruct(
    std::span<std::vector<std::uint8_t>> shards) const {
  if (shards.size() != total_shards())
    return {Errc::invalid_argument, "wrong shard count"};

  // Scratch arrays stay off the heap for stripes of up to 16 shards.
  SmallArray<std::size_t, kInlineShards> present(shards.size()),
      missing(shards.size());
  std::size_t n_present = 0, n_missing = 0;
  std::size_t ss = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].empty()) {
      missing[n_missing++] = i;
    } else {
      if (ss == 0) ss = shards[i].size();
      if (shards[i].size() != ss)
        return {Errc::invalid_argument, "inconsistent shard sizes"};
      present[n_present++] = i;
    }
  }
  if (n_missing == 0) return {};
  if (n_present < k_)
    return {Errc::corruption, "fewer than k shards survive"};

  // Decode matrix: k of the surviving rows; invert; recovered data shard d
  // = sum_j inv[d][j] * surviving_shard_j.
  SmallArray<std::uint8_t, kInlineShards * kInlineShards> sub(k_ * k_);
  SmallArray<const std::uint8_t*, kInlineShards> srcs(k_);
  for (std::size_t j = 0; j < k_; ++j) {
    const std::uint8_t* r = row(present[j]);
    for (std::size_t c = 0; c < k_; ++c) sub[j * k_ + c] = r[c];
    srcs[j] = shards[present[j]].data();
  }
  if (!gf256_invert_matrix(sub.span(), k_))
    return {Errc::corruption, "decode matrix singular"};

  // Recover missing *data* shards first: one fused row pass per missing
  // shard over the k surviving sources. Recovered shards are written
  // into place; `srcs` keeps pointing at the original survivors, which
  // is all the inverse matrix refers to.
  for (std::size_t d = 0; d < k_; ++d) {
    if (!shards[d].empty()) continue;
    shards[d].resize(ss);
    kernels_->mul_row_acc(shards[d].data(), srcs.data(), &sub[d * k_], k_, ss,
                          /*accumulate=*/false);
  }

  // Re-encode any missing parity shards from the (now complete) data.
  SmallArray<const std::uint8_t*, kInlineShards> data_ptrs(k_);
  for (std::size_t d = 0; d < k_; ++d) data_ptrs[d] = shards[d].data();
  for (std::size_t j = 0; j < n_missing; ++j) {
    const std::size_t i = missing[j];
    if (i < k_) continue;
    shards[i].resize(ss);
    kernels_->mul_row_acc(shards[i].data(), data_ptrs.data(), row(i), k_, ss,
                          /*accumulate=*/false);
  }
  return {};
}

Result<std::vector<std::uint8_t>> ReedSolomon::decode(
    const std::vector<std::vector<std::uint8_t>>& shards,
    std::size_t original_len) const {
  if (original_len == 0) return std::vector<std::uint8_t>{};
  auto copy = shards;
  if (auto st = reconstruct(copy); !st.ok()) return st.error();
  const std::size_t ss = copy[0].size();
  if (original_len > ss * k_)
    return Error{Errc::invalid_argument, "original_len exceeds capacity"};
  std::vector<std::uint8_t> out;
  out.reserve(original_len);
  for (std::size_t i = 0; i < k_ && out.size() < original_len; ++i) {
    const std::size_t n = std::min(ss, original_len - out.size());
    out.insert(out.end(), copy[i].begin(),
               copy[i].begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

}  // namespace memfss::erasure
