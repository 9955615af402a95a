#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tpcd-select --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The build cache, temporary files and the
# binary stay under .bench_build/ in the current directory. Without the
# repository around perfbench/ the build fails and the script exits
# non-zero before printing a result.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME=$out/config

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
