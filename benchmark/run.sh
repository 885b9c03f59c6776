#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it, passing the arguments through. Everything the Go toolchain writes
# (build cache, temporary and linked binaries) stays under .bench_build in
# the checkout, so the run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod"
export GOPROXY=off GOTOOLCHAIN=local
cd "$root/benchmark"
go build -o "$build/sledge-benchmark" .
exec "$build/sledge-benchmark" "$@"
