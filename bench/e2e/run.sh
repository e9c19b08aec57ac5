#!/usr/bin/env bash
# Host-cost benchmark of the BlastFunction stack (bench/e2e/README.md).
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run. The last line of stdout is the JSON result; a traced run
#       also writes .bench_build/trace-NAME-seedN.json (Chrome trace).
#   bash bench/e2e/run.sh [--seed N] [--seconds S]
#       Every workload, untraced then traced (defaults: seed 0, 10 s).
#
# The first call configures and builds bench/e2e as a standalone Release
# CMake project in .bench_build/ at the repository root. Every run appends
# one JSONL record (git SHA, build flags, nproc, steal share, metrics) to
# .bench_build/results.jsonl. Build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2
bin="$build/bench_e2e"

sha=unknown
if [ -e "$root/.git" ]; then
  sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
record=(--record "$build/results.jsonl" --sha "$sha")

workload=""
seed=0
seconds=10
args=("$@")
while [ $# -gt 0 ]; do
  case "$1" in
    --list) exec "$bin" --list ;;
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
  esac
  shift 2 || break
done

if [ -n "$workload" ]; then
  exec "$bin" "${args[@]}" "${record[@]}" \
    --trace-out "$build/trace-$workload-seed$seed.json"
fi

status=0
for name in $("$bin" --list); do
  for trace in 0 1; do
    "$bin" --workload "$name" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" "${record[@]}" \
      --trace-out "$build/trace-$name-seed$seed.json" || status=1
  done
done
exit "$status"
