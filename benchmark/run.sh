#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# In a directory without the repository's sources the build fails and this
# script exits non-zero without a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Everything the go tool writes stays under .bench_build in the checkout:
# its build cache, its module cache (GOPATH; also what it needs when HOME is
# unset) and its telemetry counters (XDG_CONFIG_HOME). It reads no go.work or
# go env file from outside, downloads no toolchain and asks no VCS.
(
	cd "$root/benchmark"
	GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-buildvcs=false \
		go build -o "$build/psmr-benchmark" .
)
cd "$root"
exec "$build/psmr-benchmark" "$@"
