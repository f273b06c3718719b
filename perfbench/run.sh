#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload paper-inproc --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ under the
# current directory, and the toolchain is kept offline.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
