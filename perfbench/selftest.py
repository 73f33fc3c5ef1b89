#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the repository root. Checks, for seeds 1 and 2:
  * thread invariance: each workload's digest on nproc threads (engine
    threads for deploy, sweep threads for fig_sweeps) equals its digest on
    one thread;
  * pins: where perfbench/pins.json pins the seed, the digest matches it;
  * the output check bites: sicbench refuses a wrong pinned digest.
Exits non-zero if any check fails.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = (1, 2)


def digest(exe, workload, seed, threads):
    r = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "0", "--digest-only",
                        "--threads", str(threads)],
                       stdout=subprocess.PIPE, text=True, check=True)
    return r.stdout.strip()


def main():
    exe = run.build()
    nproc = len(os.sched_getaffinity(0))
    failures = 0
    for seed in SEEDS:
        for workload in run.WORKLOADS:
            one = digest(exe, workload, seed, 1)
            par = digest(exe, workload, seed, nproc)
            pin = run.pinned_digest(workload, seed)
            ok = one == par and (pin is None or pin == one)
            failures += 0 if ok else 1
            print(f"{'ok  ' if ok else 'FAIL'} {workload} seed {seed}: "
                  f"1 thread {one}, {nproc} threads {par}, pinned {pin}")
    # A wrong pin must fail the run without a result line.
    r = subprocess.run([exe, "--workload", "fig_sweeps", "--seed", "1",
                        "--seconds", "1", "--trace", "0",
                        "--expect", "0" * 16],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    bites = r.returncode != 0 and '"correct"' not in r.stdout
    failures += 0 if bites else 1
    print(f"{'ok  ' if bites else 'FAIL'} wrong pinned digest is refused "
          f"(exit {r.returncode})")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
