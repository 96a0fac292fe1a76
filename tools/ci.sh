#!/bin/sh
# Continuous-integration gate: runs, in order and stopping at the first
# failure,
#   1. tier-1: the Release build and the full CTest suite,
#   2. the tsan preset on the `concurrency` suites,
#   3. the asan preset on the `sanitize` suites,
#   4. the fuzz preset's parser smoke tests.
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

step "all CI steps passed"
