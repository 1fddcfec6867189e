#!/usr/bin/env bash
# Build the test suite under sanitizers and run it.
#
# Default mode: AddressSanitizer + UndefinedBehaviorSanitizer (the
# `asan-ubsan` preset in CMakePresets.json) over the whole suite.
#
# --tsan: ThreadSanitizer (the `tsan` preset) over the threaded code: the
# sweep executor (test_sweep: the shared cell cursor, the progress lock,
# per-cell isolation), the workload reader's per-piece parse threads
# (test_workload: the WorkloadReader* parity tests) and the mapped workload
# bytes they share with the config-digest thread (the WorkloadIo tests).
# Extra ctest args narrow further.
#
# Usage: scripts/check_sanitizers.sh [--tsan] [ctest-args...]
#   e.g. scripts/check_sanitizers.sh -R ObsReplay
#        scripts/check_sanitizers.sh --tsan
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

mode=asan
if [ "${1:-}" = "--tsan" ]; then
  mode=tsan
  shift
fi

if [ "$mode" = "tsan" ]; then
  cmake --preset tsan
  cmake --build --preset tsan -j"$(nproc)" --target test_sweep test_workload
  # second_deadlock_stack makes lock-inversion reports actionable;
  # halt_on_error turns any report into a test failure instead of a log line.
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
  if [ "$#" -gt 0 ]; then
    ctest --preset tsan "$@"
  else
    ctest --preset tsan -R 'Sweep|LatencyHistogram|WorkloadReader|WorkloadIo'
  fi
  exit 0
fi

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$(nproc)"

# abort_on_error gives a backtrace instead of exit(1) deep inside gtest;
# detect_leaks stays on (default) to catch registry/log ownership slips.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

ctest --preset asan-ubsan "$@"
