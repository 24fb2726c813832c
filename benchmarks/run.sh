#!/usr/bin/env bash
# Builds xstperf from source and runs it with the arguments given, e.g.
#   bash benchmarks/run.sh --workload analytic --seed 1 --seconds 20 --trace 0
# The binary, the Go build cache and the run's temp files all stay in
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off # the build never reaches for the network
(cd "$root/benchmarks" && go build -o "$build/xstperf" ./xstperf)
cd "$root"
exec "$build/xstperf" -tmp "$build/tmp" "$@"
