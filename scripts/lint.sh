#!/usr/bin/env bash
# Static-analysis gate (see DESIGN.md "Static analysis").
#
#   scripts/lint.sh [BUILD_DIR]
#
# 1. Builds and runs tools/sic_lint over every tracked .cpp/.hpp in the
#    repository, perfbench/ included (minus the seeded-violation fixtures
#    under tests/lint_fixtures), with the checked-in R2 baseline. Any
#    finding — including a stale baseline entry — fails the run. The
#    deterministic JSON findings report is always written to
#    $BUILD_DIR/lint-findings.json (CI uploads it as an artifact, pass or
#    fail).
# 2. Perturb-style self-check: a temp tree seeded with an R5 layer
#    back-edge (src/util including mac/) MUST fail the linter — proving the
#    gate can fail at all.
# 3. If clang-tidy is installed, runs it over src/ with the repo .clang-tidy
#    (warnings are errors) against the exported compile database. When
#    clang-tidy is absent the step is skipped with a notice so the domain
#    lint still gates environments without LLVM.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
fi
cmake --build "$BUILD_DIR" --target sic_lint -j "$(nproc)"

mapfile -t files < <(git ls-files '*.cpp' '*.hpp' ':!tests/lint_fixtures')
echo "sic_lint: checking ${#files[@]} files"
"$BUILD_DIR"/tools/sic_lint --baseline tools/sic_lint/r2_baseline.txt \
  --json "$BUILD_DIR"/lint-findings.json "${files[@]}"
echo "sic_lint: clean (findings report: $BUILD_DIR/lint-findings.json)"

# Self-check: a seeded R5 back-edge (util reaching up into mac) must fail.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
mkdir -p "$tmpdir/src/util"
cat > "$tmpdir/src/util/self_check.hpp" <<'EOF'
#pragma once
#include "mac/frame.hpp"
EOF
if "$BUILD_DIR"/tools/sic_lint --only R5 "$tmpdir/src/util/self_check.hpp" \
    > "$tmpdir/self_check.out" 2>&1; then
  echo "sic_lint: SELF-CHECK FAILED — seeded R5 back-edge not detected" >&2
  cat "$tmpdir/self_check.out" >&2
  exit 1
fi
grep -q '\[R5\]' "$tmpdir/self_check.out"
echo "sic_lint: self-check ok (seeded R5 back-edge detected)"

if command -v clang-tidy >/dev/null 2>&1; then
  if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  mapfile -t tidy_files < <(git ls-files 'src/*.cpp' 'src/**/*.cpp')
  echo "clang-tidy: checking ${#tidy_files[@]} files"
  clang-tidy -p "$BUILD_DIR" --quiet --warnings-as-errors='*' \
    "${tidy_files[@]}"
  echo "clang-tidy: clean"
else
  echo "clang-tidy: not installed, skipping (sic_lint gate still applies)"
fi
