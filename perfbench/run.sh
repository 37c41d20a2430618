#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through to the program. Run from the repository root:
#
#   bash perfbench/run.sh --workload daily --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the trace files stay under
# .bench_build in the checkout. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTELEMETRY=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
