#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run it from
# the repository root with the benchmark's flags, for example:
#
#   bash perfbench/run.sh --workload chains --seed 1 --seconds 10 --trace 0
#
# The build and every file the Go toolchain writes stay under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
