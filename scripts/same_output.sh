#!/usr/bin/env bash
# Byte-identity check of the simulator's outputs: <rev> against the
# working tree, uncommitted and untracked (non-ignored) files included.
#
#   scripts/same_output.sh <rev>
#
# Run from the repository root. Exports <rev> (git archive) and the
# working tree into a fresh directory under ${TMPDIR:-/tmp} (removed at
# exit), builds both Release trees, then runs every simulator bench and
# example in each with MEMFSS_FAST=1:
#   - every bench/*.cpp binary except loadgen and perf_hotpath
#     (the serving path and the wall-clock benches); chaos_soak runs
#     seeds 1-3; fig2_baseline and fault_recovery run with
#     MEMFSS_TRACE_DIR set;
#   - every examples/*.cpp binary except rt_quickstart (serving path);
#     memfss_cli replays examples/data/pipeline.wf.
# Each run gets its own empty working directory, with MEMFSS_CSV_DIR and
# MEMFSS_TRACE_DIR (where set) relative to it, so both arms see the same
# strings. Its stdout, stderr, exit status and every file it wrote are
# compared (diff -r) with the other arm's. Prints one line per binary,
# "same" or "DIFFERS", and exits 1 on any difference, on a binary that
# only one arm has or on a failed build, 2 on a usage error.
set -euo pipefail

usage() {
  echo "usage: $0 <rev>" >&2
  exit 2
}

[[ $# -eq 1 && $1 != -* ]] || usage
rev=$1
root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || usage
workdir=$(mktemp -d "${TMPDIR:-/tmp}/memfss-same.XXXXXX")
trap 'rm -rf "$workdir"' EXIT
mkdir -p "$workdir/base" "$workdir/change"

echo "== export $rev ($commit) -> $workdir/base" >&2
git -C "$root" archive "$commit" | tar -xf - -C "$workdir/base"
echo "== export working tree -> $workdir/change" >&2
(cd "$root" &&
 git ls-files -z --cached --others --exclude-standard |
   while IFS= read -r -d '' f; do
     [[ -f $f ]] && printf '%s\0' "$f"
   done |
   tar --null -T - -cf -) | tar -xf - -C "$workdir/change"

# Binaries to compare, as "dir/name", from the union of both trees.
targets=()
while IFS= read -r t; do targets+=("$t"); done < <(
  cd "$workdir" &&
  for f in base/bench/*.cpp change/bench/*.cpp \
           base/examples/*.cpp change/examples/*.cpp; do
    [[ -f $f ]] || continue
    dir=${f#*/}
    dir=${dir%%/*}
    name=$(basename "$f" .cpp)
    case $name in
      loadgen|perf_hotpath|rt_quickstart) continue ;;
    esac
    echo "$dir/$name"
  done | sort -u)

for arm in base change; do
  echo "== build $arm" >&2
  names=()
  for t in "${targets[@]}"; do
    [[ -f $workdir/$arm/$t.cpp ]] && names+=("${t#*/}")
  done
  log=$workdir/build-$arm.log
  if ! { cmake -S "$workdir/$arm" -B "$workdir/$arm/build" \
           -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$workdir/$arm/build" -j "$(nproc)" \
           --target "${names[@]}"; } >"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "same_output: build of $arm failed" >&2
    exit 1
  fi
done

status=0
for t in "${targets[@]}"; do
  name=${t#*/}
  args=() env=(MEMFSS_FAST=1 MEMFSS_CSV_DIR=csv)
  case $name in
    chaos_soak) args=(1 2 3) ;;
    memfss_cli) args=(--trace "$workdir/base/examples/data/pipeline.wf") ;;
    fig2_baseline|fault_recovery) env+=(MEMFSS_TRACE_DIR=trace) ;;
  esac
  missing=""
  for arm in base change; do
    out=$workdir/out/$arm/$name
    mkdir -p "$out/files/csv" "$out/files/trace"
    bin=$workdir/$arm/build/$t
    if [[ ! -x $bin ]]; then
      missing=$arm
      continue
    fi
    rc=0
    (cd "$out/files" && env "${env[@]}" "$bin" "${args[@]}" \
       >"$out/stdout" 2>"$out/stderr") || rc=$?
    echo "$rc" >"$out/exit"
  done
  if [[ -n $missing ]]; then
    echo "DIFFERS $name (not built in $missing)"
    status=1
  elif diff -r -q "$workdir/out/base/$name" "$workdir/out/change/$name" \
         >"$workdir/diff.txt"; then
    echo "same    $name"
  else
    echo "DIFFERS $name"
    sed "s|$workdir/out/||g" "$workdir/diff.txt" >&2
    status=1
  fi
done
exit "$status"
