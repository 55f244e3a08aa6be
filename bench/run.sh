#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, from the root of the repository:
#
#   bash bench/run.sh --workload exact --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) and everything the benchmark writes stays under .bench_build/
# in the current directory. The build needs no network: the module has no
# dependencies outside this repository and the standard library.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

go -C "$root/bench" build -o "$build/wexpbench" .
exec "$build/wexpbench" "$@"
