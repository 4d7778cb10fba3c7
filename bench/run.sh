#!/usr/bin/env bash
# Builds hetperf from source and runs it from the repository root with the
# given arguments. The binary and everything the go command writes (build
# cache, GOPATH, telemetry counters, temporary files) live in .bench_build/,
# so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/hetperf" ./hetperf
cd "$root"
exec "$build/hetperf" "$@"
