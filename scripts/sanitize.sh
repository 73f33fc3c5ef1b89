#!/usr/bin/env bash
# Builds the tree under a sanitizer preset and runs tier-1 tests under it.
# Any heap error, leak, UB, or data race aborts (-fno-sanitize-recover=all).
#
#   scripts/sanitize.sh [asan|tsan] [extra ctest args...]
#
# asan (default): ASan + UBSan over the full ctest suite.
# tsan: ThreadSanitizer over the concurrency surface — the thread pool,
#       the parallel sweep engine, the per-thread obs context and its
#       chunked fan-out (ObsContext), and the tests that plan and serve on
#       per-thread scratch (the pair-cost engine's build scratch and
#       matching reduction, the executor workspace and its event queue):
#       PairCostEngine, DeploymentEngine, Deploy, ExecutorIdentity and
#       EventQueue. Everything else is single-threaded and already covered
#       by the asan run.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="asan"
if [[ $# -gt 0 && ( "$1" == "asan" || "$1" == "tsan" ) ]]; then
  mode="$1"
  shift
fi

if [[ "$mode" == "tsan" ]]; then
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --preset tsan -j "$(nproc)" \
      -R 'ThreadPool|ParallelSweep|ObsContext|PairCostEngine|DeploymentEngine|Deploy|ExecutorIdentity|EventQueue' \
      "$@"
else
  cmake --preset sanitize
  cmake --build --preset sanitize -j "$(nproc)"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    ctest --preset sanitize -j "$(nproc)" "$@"
fi
