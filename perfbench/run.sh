#!/usr/bin/env bash
# Builds the starmesh benchmark from the checkout it is run in and runs
# it with the given arguments, from the root of that checkout:
#
#   bash perfbench/run.sh --workload tiny-mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build).
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -C "$bench" -o "$build/perfbench" .
exec "$build/perfbench" -scratch "$build" "$@"
