#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 30 --trace 0
# Everything it writes stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
