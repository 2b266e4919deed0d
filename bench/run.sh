#!/usr/bin/env bash
# Builds ancbench from this checkout and runs it with the given flags.
# Run it from the repository root; the Go caches, temporary files, the
# binary and the traced pass's CPU profile all stay under .bench_build/.
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload alicebob-msk --seed 3 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS="-mod=readonly -buildvcs=false" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$build/ancbench" ./ancbench)
exec "$build/ancbench" "$@"
