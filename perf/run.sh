#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of the
# checkout, passing every argument on. Everything the Go toolchain writes
# (build cache, telemetry, the binary) is kept under .bench_build/ so a
# run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C perf -o "$build/munin-perf" .
exec "$build/munin-perf" "$@"
