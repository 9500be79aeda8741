#!/usr/bin/env bash
# Builds the benchmark driver and the counterminerd daemon from the
# checkout it is run in, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload analyze-fast --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# (Go build cache, binaries, daemon stores, traces) stays under
# .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

# Keep the Go toolchain's cache, config and temporary files inside the
# checkout and never reach for the network.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/counterminerd" ./cmd/counterminerd

exec "$build/bin/perfbench" -daemon "$build/bin/counterminerd" -work "$build" "$@"
