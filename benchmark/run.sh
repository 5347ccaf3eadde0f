#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, temporary files) stays
# under .bench_build beside this script, so a run touches nothing outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
