#!/bin/sh
# Continuous-integration gate: runs, in order and stopping at the first
# failure,
#   1. tier-1: the Release build and the full CTest suite,
#   2. the tsan preset on the `concurrency` suites,
#   3. the asan preset on the `sanitize` suites,
#   4. the fuzz preset's parser smoke tests,
#   5. a one-second paper-cold run of the end-to-end benchmark
#      (perfbench/), which builds its own copy of src/: it passes only when
#      the run's JSON result (its last line) says "correct": true.
#
# Usage (from anywhere inside the repository):
#   tools/ci.sh
# JOBS=N bounds build and test parallelism (default: the CPU count).
set -eu

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

step() {
  echo "==> $*"
}

step "tier-1: Release build + full suite"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

for preset in tsan asan fuzz; do
  case "$preset" in
    tsan) label=concurrency ;;
    asan) label=sanitize ;;
    fuzz) label=fuzz ;;
  esac
  step "$preset: ctest -L $label"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --test-dir "build-$preset" -L "$label" --output-on-failure \
    -j "$JOBS"
done

step "perfbench: paper-cold smoke run"
result="$(python3 perfbench/run.py --workload paper-cold --seed 1 \
  --seconds 1 --trace 0 | tail -n 1)"
echo "$result"
printf '%s\n' "$result" | python3 -c '
import json, sys
sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else 1)'

step "all CI steps passed"
