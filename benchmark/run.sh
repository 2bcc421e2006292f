#!/usr/bin/env bash
# Builds build-benchmark/ (Release; xgw tests, benches and examples off) and
# runs the benchmark from the repository root:
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
# Without --workload it runs all four workloads from one process. Build logs
# go to build-benchmark/build.log; stdout carries only the metric lines and
# the final JSON line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-benchmark"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"

if [ ! -f "$build/CMakeCache.txt" ]; then
  if ! cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      > "$build/build.log" 2>&1; then
    tail -n 30 "$build/build.log" >&2
    rm -f "$build/CMakeCache.txt"
    exit 1
  fi
fi
if ! cmake --build "$build" --target xgw_benchmark -j "$(nproc)" \
    >> "$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  exit 1
fi

cd "$root"
exec "$build/xgw_benchmark" "$@"
