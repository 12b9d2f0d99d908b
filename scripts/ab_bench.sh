#!/usr/bin/env bash
# Paired A/B run of the repository benchmark: <rev> against the working
# tree, uncommitted and untracked (non-ignored) files included.
#
#   scripts/ab_bench.sh <rev> [--first-seed S] [--workdir DIR]
#
# Run from the repository root. Exports <rev> (git archive) and the
# working tree into DIR/base and DIR/change (default DIR: a fresh
# directory under ${TMPDIR:-/tmp}), builds perfbench in each through
# perfbench/run.py, then runs 10 pairs of the BENCHMARK.json command with
# --trace 0 for every workload BENCHMARK.json lists, each for its
# run_seconds. Pair i uses seed S+i (default S: 1) for both arms; the
# arm that runs first alternates from pair to pair.
#
# Prints, per workload and end-to-end metric, both arms' medians with
# quartiles, in how many pairs the change was better, the change's
# median relative to the base's, and whether that stays within the
# metric's bound; then each arm's failed and attempted op totals. Raw
# result lines go to DIR/results.jsonl. Without --workdir the two
# exported trees are removed at exit and only results.jsonl is kept.
# BENCHMARK.json and perfbench/ are only read. Exits 1 when a run fails
# or reports "correct": false, 2 on a usage error.
set -euo pipefail

usage() {
  echo "usage: $0 <rev> [--first-seed S] [--workdir DIR]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
rev=$1
shift
first_seed=1 workdir=""
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case $1 in
    --first-seed) first_seed=$2 ;;
    --workdir) workdir=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[[ $first_seed =~ ^[0-9]+$ ]] || usage

root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}") || usage
if [[ -z $workdir ]]; then
  workdir=$(mktemp -d "${TMPDIR:-/tmp}/memfss-ab.XXXXXX")
  trap 'rm -rf "$workdir/base" "$workdir/change"' EXIT
fi
workdir=$(realpath -m "$workdir")
case $workdir/ in
  "$root"/*) echo "ab_bench: --workdir must lie outside the repo" >&2
             exit 2 ;;
esac
mkdir -p "$workdir"
rm -rf "$workdir/base" "$workdir/change"
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

for arm in base change; do
  echo "== build $arm" >&2
  (cd "$workdir/$arm" &&
   python3 -c 'import sys; sys.path.insert(0, "perfbench"); import run; run.build()')
done

status=0
python3 - "$root/BENCHMARK.json" "$workdir" "$first_seed" <<'EOF' || status=$?
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
spec_path, workdir, first_seed = sys.argv[1:]
first_seed = int(first_seed)
spec = json.load(open(spec_path))
seconds = str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"]]
log = open(os.path.join(workdir, "results.jsonl"), "w")
ok = True


def run(arm, workload, seed):
    global ok
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", seconds, "--trace", "0"]
    proc = subprocess.run(cmd, cwd=os.path.join(workdir, arm),
                          stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except (ValueError, IndexError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    if proc.returncode != 0 or not result["correct"]:
        ok = False
        print("ab_bench: %s %s seed %d: exit %d, correct %s"
              % (arm, workload, seed, proc.returncode, result["correct"]),
              file=sys.stderr)
    log.write(json.dumps({"arm": arm, "workload": workload, "seed": seed,
                          "exit": proc.returncode, "result": result}) + "\n")
    log.flush()
    return result


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


for workload in workloads:
    runs = {"base": [], "change": []}
    for i in range(PAIRS):
        seed = first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for arm in order:
            runs[arm].append(run(arm, workload, seed))
        print("  %s pair %d/%d (seed %d) done" % (workload, i + 1, PAIRS,
                                                 seed), file=sys.stderr)
    print("%s: %d pairs, seeds %d-%d, %s s per run"
          % (workload, PAIRS, first_seed, first_seed + PAIRS - 1, seconds))
    print("  %-28s %-30s %-30s %5s %8s  %s"
          % ("metric", "base median [q1-q3]", "change median [q1-q3]",
             "wins", "delta", "bound"))
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"].get(name, {}).get("value")
                for r in runs["base"]]
        change = [r["metrics"].get(name, {}).get("value")
                  for r in runs["change"]]
        if None in base or None in change:
            print("  %-28s missing in some runs" % name)
            ok = False
            continue
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        rel = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        worse = rel if lower else -rel
        print("  %-28s %-30s %-30s %2d/%-2d %+7.2f%%  %s (%.0f%%)"
              % (name, "%.4g [%.4g-%.4g]" % (bq[1], bq[0], bq[2]),
                 "%.4g [%.4g-%.4g]" % (cq[1], cq[0], cq[2]), wins, PAIRS,
                 100 * rel, "within" if worse <= m["bound"] else "WORSE",
                 100 * m["bound"]))
    for arm in ("base", "change"):
        print("  %-6s failed %d of %d attempted ops"
              % (arm, sum(r["failed"] for r in runs[arm]),
                 sum(r["attempted"] for r in runs[arm])))
sys.exit(0 if ok else 1)
EOF
echo "results: $workdir/results.jsonl" >&2
exit "$status"
