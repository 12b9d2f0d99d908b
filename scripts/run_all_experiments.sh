#!/usr/bin/env bash
# Regenerate every paper table/figure plus the ablations, the load
# driver and the hot-path benchmark. Run from the repository root.
#
#   scripts/run_all_experiments.sh [--fast]
#
# --fast sets MEMFSS_FAST=1 (small clusters / short workloads) for a
# quick smoke pass. Every figure is computed fresh; bench/fig3_6_slowdown
# runs the Fig. 3-5 sweeps once and prints Fig. 6 from the same cells.
set -euo pipefail

if [[ "${1:-}" == "--fast" ]]; then
  export MEMFSS_FAST=1
  echo "== fast mode (MEMFSS_FAST=1) =="
fi

# Ninja for a fresh tree; an existing build/ keeps its generator (CMake
# refuses to switch one, and the tier-1 command uses the default).
gen=()
[[ -f build/CMakeCache.txt ]] || gen=(-G Ninja)
cmake -B build "${gen[@]}"
cmake --build build

echo "== tests =="
ctest --test-dir build --timeout 300 | tee test_output.txt

echo "== benches =="
: > bench_output.txt
# One binary per bench/*.cpp: an existing build/ may still hold binaries
# whose sources were deleted.
for src in bench/*.cpp; do
  b=build/bench/$(basename "$src" .cpp)
  [[ -x "$b" && -f "$b" ]] || continue
  echo "=== $(basename "$b") ===" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done

echo "done: see test_output.txt and bench_output.txt"
