#!/usr/bin/env python3
"""Build and run the MemFSS repository benchmark (see README.md here).

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench (Release) from ../src
into .bench_build/perfbench on first use, then runs one workload in its
own process. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Exits 1 when the build fails, a metric is missing, or any op fails its
reference check.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["tcp_kv_1k", "inproc_ec_64k", "sim_fig2_ddbag"]
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no MemFSS sources next to perfbench/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace, spec):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(spans, "%s-seed%d.trace.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        die("%s exited %d without a result" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    metrics = result["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die("%s did not report %s" % (workload, ", ".join(missing)))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    if args.workload != "all":
        result, code = run_one(args.workload, args.seed, args.seconds,
                               args.trace, spec)
        print(json.dumps(result))
        sys.exit(code if code else (0 if result["correct"] else 1))
    # Every workload, each in its own process; metrics keyed workload.name.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        result, code = run_one(w, args.seed, args.seconds, args.trace, spec)
        total["correct"] &= result["correct"] and code == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][w + "." + name] = m
    print(json.dumps(total))
    sys.exit(0 if total["correct"] else 1)


if __name__ == "__main__":
    main()
