#!/usr/bin/env bash
# CI-style check: build and test the plain configuration, then the
# sanitized one (ASan + UBSan via -DMEMFSS_SANITIZE=address,undefined).
# Run from the repository root. Every mode runs as a named phase and a
# one-line PASS/FAIL per phase prints on exit, so a long multi-phase
# run ends with an at-a-glance verdict.
#
#   scripts/check.sh [--plain-only|--sanitize-only|--coverage|--perf|
#                     --chaos|--tsan|--qos|--net|--netchaos|--tier]
#
# --coverage builds with gcov instrumentation (-DMEMFSS_COVERAGE=ON) in
# build-cov/, runs the tests, prints per-directory line coverage, and
# fails if src/obs/ or the tiered-memory sources (src/kvstore/tier,
# src/exp/tier) fall below 90% -- the observability layer is the
# regression oracle for everything else and the tiering policy guards
# data placement, so both stay fully tested.
#
# --perf builds Release in build-perf/, runs bench/perf_hotpath, and
# fails if sim events/sec, the SIMD byte-pump rows (erasure GB/s, 64 KiB
# CRC32C MB/s, on the active arm and on every SIMD arm the host runs),
# the netio codec rows (frame CRC32C MB/s, 1 KiB PUT
# round-trips/s) or the EC rows (64 KiB RS(4,2) puts/s and gets/s)
# regress more than 20% against the committed
# BENCH_hotpath.json, or if RS(8,3) encode falls under 5x the committed
# pre-SIMD scalar baseline (erasure_prepr) while a SIMD kernel is
# selected. Only meaningful on the machine that produced the committed
# numbers (wall-clock benches don't transfer across hosts). The exact
# count rows (heap allocations and fresh buffer-recycler takes per
# 64 KiB EC put and get, and heap allocations per in-process server
# round trip: 1 KiB plain and 64 KiB RS(4,2) puts and gets) do
# transfer: they fail on any fresh count above the committed one.
#
# --tsan builds with ThreadSanitizer (-DMEMFSS_SANITIZE=thread) in
# build-tsan/ and runs only the `concurrency`-labeled ctest targets --
# the multithreaded runtime suite (src/rt), the network chaos suites and
# the threaded slowdown sweep (exp::run_slowdown_sweep). TSan is
# mutually exclusive with ASan, so this is a separate mode rather than
# part of the default sanitize pass; only the concurrency_tests target
# (every test tests/CMakeLists.txt labels `concurrency`) is built since
# the rest of the single-threaded sim suite has nothing for TSan to find.
#
# --qos runs the adversarial multi-tenant isolation scenario
# (bench/loadgen --qos: 8 small tenants + 1 abusive tenant at >= 10x its
# rate quota, compared against a no-abuser baseline) at three fixed
# seeds with a fixed isolation factor. Fails if any small tenant's p99
# degrades past the factor, the abuser is shed by queue-full rejection
# instead of Errc::overloaded, or the memory-accounting invariants trip.
#
# --net exercises the TCP serving path (DESIGN.md §13): builds the
# plain tree, runs the protocol codec + socket test suites, then a
# 3-seed loopback loadgen smoke (bench/loadgen --net) with request-id
# accounting and a throughput sanity floor. Fails if any response is
# lost or duplicated, a transport error occurs, or throughput lands
# under the floor.
#
# --netchaos runs the network chaos soak (DESIGN.md §15) under the
# sanitizer build: resilient clients drive seeded op streams through
# the in-process chaos proxy (resets, blackholes, torn frames,
# corruption, delays) at three fixed seeds, each with a faulted and a
# clean arm. Fails if any acknowledged op is lost or duplicated, a read
# escapes the per-key possibility model, accounting breaks after
# quiesce, the clean arm's digest differs from the in-process replay,
# the faulted arm injected no faults, or ASan/UBSan reports anything.
#
# --tier runs the tiered hot/cold memory suite (DESIGN.md §16) under
# the sanitizer build: the tiering invariant/property tests, the Store
# and Server suites (the cold tier is a kvstore::Store, and the Server
# moves values between the two), plus bench/tier_pressure at three
# fixed seeds. The bench exits nonzero if
# any arm fails, a tiered arm records zero demotions, or the p99
# victim-reclaim-stall reduction lands under 2x, so regressions in the
# demote-coldest-first path fail the phase. (The tiering suites are
# single-threaded sim code, so they are deliberately absent from the
# --tsan concurrency label list.)
#
# --chaos runs the full-size chaos soak (bench/chaos_soak: randomized
# partitions + crashes + revocation + pressure evictions, then heal and
# check durability / accounting / recovery invariants) at three fixed
# seeds under the sanitizer build, so memory errors surface alongside
# invariant violations. Fails on either.
#
# The sanitized and coverage passes use their own build trees
# (build-san/, build-cov/) so they never perturb incremental state in
# build/.
set -euo pipefail

# One row per mode: "flag|function|phase name". With no argument the
# plain and sanitized phases run, in that order.
modes=(
  "--plain-only|do_plain|plain build + tests"
  "--sanitize-only|do_san|sanitized (address,undefined)"
  "--coverage|do_cov|coverage (gcov)"
  "--perf|do_perf|perf check (Release)"
  "--chaos|do_chaos|chaos soak (sanitized)"
  "--tsan|do_tsan|thread-sanitized concurrency suite"
  "--qos|do_qos|qos adversarial isolation"
  "--net|do_net|tcp serving path (--net)"
  "--netchaos|do_netchaos|network chaos soak (--netchaos)"
  "--tier|do_tier|tiered memory suite (--tier)"
)
usage() {
  local IFS='|'
  echo "usage: $0 [${modes[*]%%|*}]" >&2
  exit 2
}
case $# in
  0) selected=(--plain-only --sanitize-only) ;;
  1) selected=("$1") ;;
  *) usage ;;
esac
rows=()
for flag in "${selected[@]}"; do
  for row in "${modes[@]}"; do
    [[ ${row%%|*} == "$flag" ]] && rows+=("$row")
  done
done
[[ ${#rows[@]} -eq ${#selected[@]} ]] || usage

# Phase bookkeeping: every mode runs through phase(), and the EXIT trap
# prints one PASS/FAIL line per attempted phase whatever happens (a
# failing phase aborts the script via set -e with its row marked FAIL).
phase_names=()
phase_results=()
summary() {
  local status=$?
  if [[ ${#phase_names[@]} -gt 0 ]]; then
    echo "== phase summary =="
    local i
    for i in "${!phase_names[@]}"; do
      printf '  %-34s %s\n' "${phase_names[$i]}" "${phase_results[$i]}"
    done
  fi
  if [[ $status -eq 0 ]]; then
    echo "== all checks passed =="
  else
    echo "== FAILED (exit $status) ==" >&2
  fi
  exit "$status"
}
trap summary EXIT

phase() {
  local name=$1; shift
  phase_names+=("$name")
  phase_results+=("FAIL")
  echo "== $name =="
  "$@"
  phase_results[$((${#phase_results[@]} - 1))]="PASS"
}

# One row per build tree: "dir|cmake flags|runtime env". The sanitized
# trees carry the env their binaries run under: abort_on_error gives
# ctest a hard failure instead of a hang on leak reports; detect_leaks
# stays on (the sim owns everything by value). MEMFSS_WERROR stays off
# where set: GCC 12's libstdc++ emits -Wrestrict false positives from
# std::string concatenation at -O2, which -Werror turns into hard errors
# unrelated to this codebase.
declare -A trees=(
  [plain]="build|-DMEMFSS_WERROR=OFF|"
  [san]="build-san|-DCMAKE_BUILD_TYPE=Debug -DMEMFSS_SANITIZE=address,undefined|ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1"
  [cov]="build-cov|-DCMAKE_BUILD_TYPE=Debug -DMEMFSS_WERROR=OFF -DMEMFSS_COVERAGE=ON|"
  [perf]="build-perf|-DCMAKE_BUILD_TYPE=Release -DMEMFSS_WERROR=OFF|"
  [tsan]="build-tsan|-DCMAKE_BUILD_TYPE=Debug -DMEMFSS_WERROR=OFF -DMEMFSS_SANITIZE=thread|TSAN_OPTIONS=halt_on_error=1"
)

# build_tree <row> [targets...]: configure the row's tree and build the
# targets (everything when none are named). Leaves $dir and $envs set;
# the phase runs its binaries as `env $envs ...`. A fresh tree gets
# Ninja; an existing one keeps the generator it was configured with
# (build/ is also the tier-1 tree, which plain `cmake -B build -S .`
# configures with the default generator, and CMake refuses a switch).
build_tree() {
  local flags gen=()
  IFS='|' read -r dir flags envs <<<"${trees[$1]}"
  shift
  [[ -f $dir/CMakeCache.txt ]] || gen=(-G Ninja)
  cmake -B "$dir" "${gen[@]}" $flags
  cmake --build "$dir" ${1:+--target} "$@"
}

do_plain() {
  build_tree plain
  ctest --test-dir "$dir" --output-on-failure
}

do_san() {
  build_tree san
  env $envs ctest --test-dir "$dir" --output-on-failure
  # Second arm of the GF(2^8) and CRC32C dispatch: rerun the coding,
  # hash, EC and frame-codec suites with the env override pinning the
  # portable kernels, so both sides of each runtime dispatch stay
  # sanitized (DESIGN.md §14).
  echo "== sanitized rerun, MEMFSS_FORCE_SCALAR=1 =="
  env MEMFSS_FORCE_SCALAR=1 $envs ctest --test-dir "$dir" --output-on-failure \
    -R 'GF256|ReedSolomon|Fnv|Hrw|RtEc|Crc32c|NetioCodec'
}

do_cov() {
  build_tree cov
  # Stale .gcda from a previous run would inflate the numbers.
  find "$dir" -name '*.gcda' -delete
  ctest --test-dir "$dir" --output-on-failure
  python3 scripts/coverage_report.py "$dir" --require src/obs=90 \
    --require src/kvstore/tier=90 --require src/exp/tier=90
}

do_perf() {
  build_tree perf perf_hotpath
  local fresh
  fresh=$(mktemp)
  "$dir/bench/perf_hotpath" "$fresh"
  # Compare the scalars least prone to run-to-run noise: event-loop
  # throughput, the byte-pump rows (coding GB/s, 64 KiB CRC32C MB/s, per
  # SIMD arm too), the
  # netio codec rows (checksum MB/s, 1 KiB PUT round-trips/s) and the
  # EC rows (64 KiB RS(4,2) puts/s and gets/s).
  # A >20% drop against any committed number is a regression, and the
  # SIMD encode path must hold >= 5x the committed pre-SIMD scalar
  # baseline whenever a vector kernel is active. Exact counts (EC and
  # in-process server allocations per op, fresh recycler takes per EC
  # op) must not rise at all.
  python3 - "$fresh" BENCH_hotpath.json <<'EOF'
import json, re, sys
def row(path, bench, metric):
    for r in json.load(open(path)):
        if r["bench"] == bench and r["metric"] == metric:
            return r["value"]
    sys.exit(f"{path}: no {bench} {metric} row")
fresh_path, committed_path = sys.argv[1], sys.argv[2]
failures = []
for bench, metric in [("sim", "events_per_sec"),
                      ("erasure", "rs_encode_GBps"),
                      ("erasure", "rs_decode_loss_GBps"),
                      ("hash", "crc32c_64k_MBps"),
                      ("netio", "checksum_1k_MBps"),
                      ("netio", "codec_roundtrip_1k_per_sec"),
                      ("ec", "put_64k_per_sec"),
                      ("ec", "get_64k_per_sec")]:
    fresh = row(fresh_path, bench, metric)
    committed = row(committed_path, bench, metric)
    ratio = fresh / committed
    print(f"{bench}.{metric}: fresh {fresh:.3g} vs committed "
          f"{committed:.3g} (ratio {ratio:.2f})")
    if ratio < 0.8:
        failures.append(f"{bench}.{metric} dropped more than 20%")
# Per-arm rows: every SIMD arm this host runs has its own coding and
# CRC32C row, so an arm keeps a fenced number after it stops being
# selected. Each one the fresh run emits is held to the same 20% band;
# an arm this host lacks emits no row and is not checked. The portable
# arms' rows (_scalar, _table) stay reported only: they swing 30-45%
# between runs of unchanged code.
arm_row = re.compile(r"(rs_encode|rs_decode_loss)_(?P<a>.+)_GBps|"
                     r"crc32c_(?P<c>.+)_64k_MBps")
committed_rows = {(r["bench"], r["metric"]): r["value"]
                  for r in json.load(open(committed_path))}
for r in json.load(open(fresh_path)):
    m = arm_row.fullmatch(r["metric"])
    if m is None or (m["a"] or m["c"]) in ("scalar", "table"):
        continue
    name = f'{r["bench"]}.{r["metric"]}'
    committed = committed_rows.get((r["bench"], r["metric"]))
    if committed is None:
        failures.append(f"{name} has no committed row")
        continue
    ratio = r["value"] / committed
    print(f"{name}: fresh {r['value']:.3g} vs committed {committed:.3g} "
          f"(ratio {ratio:.2f})")
    if ratio < 0.8:
        failures.append(f"{name} dropped more than 20%")
for bench, metric in [("ec", "put_64k_allocs"), ("ec", "get_64k_allocs"),
                      ("ec", "put_64k_fresh_takes"),
                      ("ec", "get_64k_fresh_takes"),
                      ("ec", "get_degraded_64k_allocs"),
                      ("ec", "get_degraded_64k_fresh_takes"),
                      ("rt", "put_1k_allocs"), ("rt", "get_1k_allocs"),
                      ("rt", "ec_put_64k_allocs"),
                      ("rt", "ec_get_64k_allocs")]:
    fresh = row(fresh_path, bench, metric)
    committed = row(committed_path, bench, metric)
    print(f"{bench}.{metric}: fresh {fresh:g} vs committed {committed:g}")
    if fresh > committed:
        failures.append(f"{bench}.{metric} rose above the committed count")
# The dispatch win itself: SIMD encode vs the committed pre-SIMD scalar
# baseline. Skipped when the host pinned/selected the scalar kernel
# (fresh active row ~ fresh scalar row), since the 5x claim is about the
# vector backends.
enc = row(fresh_path, "erasure", "rs_encode_GBps")
enc_scalar = row(fresh_path, "erasure", "rs_encode_scalar_GBps")
prepr = row(committed_path, "erasure_prepr", "rs_encode_GBps")
if enc > 1.5 * enc_scalar:
    speedup = enc / prepr
    print(f"erasure.rs_encode_GBps: {speedup:.1f}x over pre-SIMD baseline "
          f"{prepr:.3g}")
    if speedup < 5.0:
        failures.append("SIMD rs_encode under 5x the pre-SIMD baseline")
else:
    print("scalar kernel active; skipping 5x dispatch-win check")
if failures:
    sys.exit("perf regression: " + "; ".join(failures))
EOF
  rm -f "$fresh"
}

do_tsan() {
  build_tree tsan concurrency_tests
  env $envs ctest --test-dir "$dir" -L concurrency --output-on-failure
}

do_net() {
  build_tree plain test_netio_codec test_rt_tcp loadgen
  ctest --test-dir "$dir" --output-on-failure -R 'NetioCodec|RtTcp'
  # Loopback smoke: 4 client threads x 2 pipelined connections over 2
  # reactors, 3 seeds; loadgen exits nonzero on any lost/duplicated
  # response or if throughput lands under the sanity floor (loopback
  # with zero service time clears 20k ops/s with an order of magnitude
  # to spare on any host).
  "$dir/bench/loadgen" --net --threads 4 --ops 5000 --service-us 0 \
    --connections 2 --reactors 2 --seeds 3 --min-ops-per-sec 20000
}

do_netchaos() {
  build_tree san loadgen test_netio_chaos test_rt_net_chaos
  # The focused suites first (proxy transparency, torn frames, breaker,
  # corruption-never-surfaces), then the 3-seed soak: faulted + clean
  # arm per seed, acked-op invariants and digest checks inside.
  env $envs ctest --test-dir "$dir" --output-on-failure \
    -R 'NetioChaos|RtNetChaos'
  env $envs "$dir/bench/loadgen" --netchaos --seeds 3 --ops 600
}

do_qos() {
  build_tree plain loadgen
  local seed
  for seed in 1 2 3; do
    echo "-- qos seed $seed --"
    "$dir/bench/loadgen" --qos --tenants 8 --seed "$seed" \
      --isolation-factor 5.0
  done
}

do_tier() {
  build_tree san test_tiering test_tiering_props test_store test_server \
    tier_pressure
  env $envs ctest --test-dir "$dir" --output-on-failure \
    -R 'Tiering|TieringFs|TierPressure|HeatDecay|HeatOrder|^Store\.|^Server\.'
  env $envs "$dir/bench/tier_pressure" 1 2 3
}

do_chaos() {
  build_tree san chaos_soak
  env $envs "$dir/bench/chaos_soak" 1 2 3
}

for row in "${rows[@]}"; do
  IFS='|' read -r _ fn name <<<"$row"
  phase "$name" "$fn"
done
true
