#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's "command"): builds the
# benchmark program and runs it with the arguments given, from the root of
# the checkout. Everything the build and the run write stays under
# .bench_build/ and bench/out/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/fmore-bench" .)
cd "$root"
exec "$build/bin/fmore-bench" "$@"
