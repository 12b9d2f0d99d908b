// Micro-benchmarks for the placement schemes: decision cost per lookup.
//
// The paper argues HRW's O(n) decision is acceptable because MemFSS
// hashes over *classes* first (two evaluations) and then only over the
// nodes of one class. These benchmarks quantify those costs on real
// hardware.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/str.hpp"
#include "hash/class_hrw.hpp"
#include "hash/hashes.hpp"
#include "hash/consistent.hpp"
#include "hash/hrw.hpp"
#include "hash/weight_solver.hpp"

using namespace memfss;

namespace {

std::vector<NodeId> nodes(std::size_t n, NodeId base = 0) {
  std::vector<NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = base + NodeId(i);
  return v;
}

void BM_HrwSelect(benchmark::State& state) {
  const auto servers = nodes(std::size_t(state.range(0)));
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hash::hrw_select(strformat("key-%d", k++ & 1023), servers));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HrwSelect)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_HrwSelectTr(benchmark::State& state) {
  const auto servers = nodes(std::size_t(state.range(0)));
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::hrw_select(
        strformat("key-%d", k++ & 1023), servers,
        hash::ScoreFn::thaler_ravishankar));
  }
}
BENCHMARK(BM_HrwSelectTr)->Arg(32)->Arg(128);

void BM_TwoLayerClassHrw(benchmark::State& state) {
  // The MemFSS configuration: 8 own + N victims, alpha = 25%.
  const auto w = hash::two_class_weights(0.25);
  const std::vector<hash::NodeClass> classes{
      {0, w.own, nodes(8)},
      {1, w.victim, nodes(std::size_t(state.range(0)), 100)},
  };
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hash::place(strformat("key-%d", k++ & 1023), classes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoLayerClassHrw)->Arg(32)->Arg(128)->Arg(512);

void BM_ConsistentRing(benchmark::State& state) {
  hash::ConsistentRing ring(128);
  for (NodeId n : nodes(std::size_t(state.range(0)))) ring.add_node(n);
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.select(strformat("key-%d", k++ & 1023)));
  }
}
BENCHMARK(BM_ConsistentRing)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_HrwTop3(benchmark::State& state) {
  const auto servers = nodes(std::size_t(state.range(0)));
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hash::hrw_top(strformat("key-%d", k++ & 1023), servers, 3));
  }
}
BENCHMARK(BM_HrwTop3)->Arg(32)->Arg(128);

// The CRC32C payload checksum (DESIGN.md §14) over a 1 KiB frame body
// and a 64 KiB value.
void BM_Crc32c(benchmark::State& state) {
  std::vector<std::uint8_t> value(std::size_t(state.range(0)));
  for (std::size_t i = 0; i < value.size(); ++i)
    value[i] = std::uint8_t(i * 131 + 7);
  for (auto _ : state)
    benchmark::DoNotOptimize(hash::crc32c(value.data(), value.size()));
  state.SetBytesProcessed(state.iterations() *
                          std::int64_t(value.size()));
}
BENCHMARK(BM_Crc32c)->Arg(1024)->Arg(64 * 1024);

// Per-key FNV-1a digests, the input every digest-based lookup takes.
void BM_Fnv1aPerKey(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back(strformat("i12345:%zu:stripe-payload-key", i));
  std::vector<std::uint64_t> out(n);
  std::int64_t bytes = 0;
  for (const auto& k : keys) bytes += std::int64_t(k.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) out[i] = hash::fnv1a(keys[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_Fnv1aPerKey)->Arg(64)->Arg(4096);

void BM_WeightSolver3Class(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hash::solve_class_weights({0.5, 0.3, 0.2}, 100));
  }
}
BENCHMARK(BM_WeightSolver3Class);

}  // namespace

BENCHMARK_MAIN();
