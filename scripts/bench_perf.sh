#!/usr/bin/env bash
# Regenerate BENCH_hotpath.json from a Release build of bench/perf_hotpath.
# Run from the repository root.
#
# The committed file holds two kinds of rows:
#   - live rows (bench: "fabric", "placement", "sim", "erasure", "hash",
#     "netio", "ec", "rt", "fig2_ddbag"): rewritten by this script from a fresh
#     run on this machine;
#   - baseline rows (bench suffixed "_prepr"): the pre-optimization
#     numbers captured when the hot-path work landed. They are *preserved*
#     verbatim so the speedup over the original implementation stays
#     readable in the file, and scripts/check.sh --perf has a fixed
#     reference for regression checks.
#
# Wall-clock values are machine-dependent; compare rows only within one
# machine's history.
set -euo pipefail

out=BENCH_hotpath.json
tmp=$(mktemp)
trap 'rm -f "$tmp" "$out.new"' EXIT

echo "== Release build =="
cmake -B build-perf -G Ninja -DCMAKE_BUILD_TYPE=Release -DMEMFSS_WERROR=OFF
cmake --build build-perf --target perf_hotpath

echo "== bench run =="
./build-perf/bench/perf_hotpath "$tmp"

# Splice: fresh live rows + preserved *_prepr baseline rows.
python3 - "$tmp" "$out" <<'EOF'
import json, sys
fresh_path, out_path = sys.argv[1], sys.argv[2]
fresh = json.load(open(fresh_path))
try:
    old = json.load(open(out_path))
except FileNotFoundError:
    old = []
baseline = [r for r in old if r["bench"].endswith("_prepr")]
rows = fresh + baseline
with open(out_path + ".new", "w") as f:
    f.write("[\n")
    f.write(",\n".join(
        '  {"bench": "%s", "metric": "%s", "value": %.6g, '
        '"unit": "%s", "seed": %d}'
        % (r["bench"], r["metric"], r["value"], r["unit"], r["seed"])
        for r in rows))
    f.write("\n]\n")
EOF
mv "$out.new" "$out"
echo "== wrote $out =="
