#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build and
# runs it from bench/ with the arguments given, e.g.
#   bash bench/run.sh --workload kv-read-mostly --seed 1 --seconds 15 --trace 0
# Everything the toolchain writes (build cache, temporary files) stays
# inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off # toolchain counters and user settings
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cd "$here"
go build -o "$build/polytm-bench" .
exec "$build/polytm-bench" "$@"
