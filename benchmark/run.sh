#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it with the arguments given. Everything the build and the run
# write (Go build cache, temporary files, the binary, journals) stays in
# .bench_build/ under the checkout. In a directory without the product
# sources the build fails and this script exits non-zero without a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C benchmark -o "$out/qgp-benchmark" .
exec "$out/qgp-benchmark" "$@"
