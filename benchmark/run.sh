#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from the checkout
# it is run in and keeps everything the build writes inside that checkout, in
# .bench_build/, then runs it with the driver's arguments:
#
#   bash benchmark/run.sh --workload olap_flat --seed 1 --seconds 12 --trace 0
#
# By hand, `go run ./benchmark ...` does the same with the usual build cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
