// SmallArray: `n` value-initialized elements, chosen at run time, that
// live inline when n <= N and in a heap vector above it. For the
// per-shard scratch arrays of erasure coding, whose width is almost
// always small, so the common case allocates nothing.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace memfss {

template <class T, std::size_t N>
class SmallArray {
 public:
  explicit SmallArray(std::size_t n) : n_(n) {
    if (n > N) wide_.resize(n);
  }
  SmallArray(const SmallArray&) = delete;
  SmallArray& operator=(const SmallArray&) = delete;

  T* data() { return n_ > N ? wide_.data() : fixed_.data(); }
  std::size_t size() const { return n_; }
  T& operator[](std::size_t i) { return data()[i]; }
  std::span<T> span() { return {data(), n_}; }

 private:
  std::size_t n_;
  std::array<T, N> fixed_{};
  std::vector<T> wide_;
};

}  // namespace memfss
