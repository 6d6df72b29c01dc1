#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. Everything
# the Go toolchain writes (build cache, temporary files, the binary)
# goes under .bench_build/ at the repository root, so a run touches
# nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOENV=off
go build -C "$here" -o "$build/cds-benchmark" .
exec "$build/cds-benchmark" "$@"
