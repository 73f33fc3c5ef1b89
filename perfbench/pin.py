#!/usr/bin/env python3
"""Regenerates perfbench/pins.json: the output digest of every workload for
seeds 0..99 plus the held-out seed.

    python3 perfbench/pin.py

Run from the repository root, only when a change is meant to alter what
the program computes; the diff of pins.json then shows which outputs moved.
"""

import concurrent.futures
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HELD_OUT_SEED = 90210
SEEDS = list(range(100)) + [HELD_OUT_SEED]
JOBS = 3


def main():
    exe = run.build()

    def one(job):
        workload, seed = job
        r = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                            "--seconds", "1", "--trace", "0", "--digest-only"],
                           stdout=subprocess.PIPE, text=True, check=True)
        return workload, seed, r.stdout.strip()

    pins = {w: {} for w in run.WORKLOADS}
    jobs = [(w, s) for w in run.WORKLOADS for s in SEEDS]
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for workload, seed, d in pool.map(one, jobs):
            pins[workload][str(seed)] = d
    with open(os.path.join(run.HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"pinned {len(SEEDS)} seeds x {len(run.WORKLOADS)} workloads")


if __name__ == "__main__":
    main()
