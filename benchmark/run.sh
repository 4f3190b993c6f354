#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from the
# checkout's source with the Go build cache and temp directory pinned
# inside the checkout (under .bench_build/), then runs it with the
# driver's arguments:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The benchmark is its own module (benchmark/go.mod, `replace hive => ../`);
# `cd benchmark && go build -o hiveload . && cd .. && benchmark/hiveload ARGS`
# does the same with the caches left at the user's defaults. Outside a
# checkout (no go.mod and no cmd/hived above benchmark/) the build fails
# and this script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
mkdir -p "$GOCACHE" "$GOTMPDIR" "$root/.bench_build/bin"
(cd "$root/benchmark" && go build -o "$root/.bench_build/bin/hiveload" .)
exec "$root/.bench_build/bin/hiveload" "$@"
