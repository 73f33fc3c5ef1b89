#!/usr/bin/env python3
"""Benchmark entry point: builds sicbench from source, runs one workload.

    python3 perfbench/run.py --workload deploy_dense --seed 1 --seconds 20 --trace 0

Run from the repository root. The library (src/) and the benchmark binary
sicbench (perfbench/*.cpp) are built with CMake into $CARGO_TARGET_DIR
(default .bench_build) on first use. sicbench's stdout is passed through;
its last line is the JSON result. The digest pinned in perfbench/pins.json
for the workload and seed is handed to sicbench, which fails the run on a
mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("deploy_dense", "deploy_churn", "fig_sweeps")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def root_dir():
    return os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds sicbench; returns its path."""
    src = os.path.join(root_dir(), "src")
    if not os.path.isdir(src):
        fail(f"library sources not found at {src}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(out, "sicbench")


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    return pins.get(workload, {}).get(str(seed))


def expected_metrics(trace):
    with open(os.path.join(root_dir(), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    pin = pinned_digest(args.workload, args.seed)
    if pin:
        cmd += ["--expect", pin]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir(), f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"sicbench exceeded {RUN_TIMEOUT_S} s", 1)
    if r.returncode != 0:
        fail(f"sicbench exited with {r.returncode}", r.returncode)
    result = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"sicbench metrics {sorted(got.items())} differ from "
             f"BENCHMARK.json {sorted(want.items())}", 1)
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
