#!/usr/bin/env bash
# Builds the gateway and the benchmark from this checkout, runs the
# benchmark's unit tests, then runs the benchmark with the given flags, e.g.
#
#   bash bench/run.sh --workload steady --seed 7 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds and writes stays
# under .bench_build/ and bench/out/.
#
# The benchmark is a Go module of its own, so the repository's
# `go test ./...` does not reach its tests; running them here (cached
# after the first run) means a broken gate, parser or metric table stops
# every measurement instead of going unnoticed.
set -euo pipefail

root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/work"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

cd "$root/bench"
go build -o "$build/raptrack" raptrack/cmd/raptrack
go build -o "$build/bench" .
go test -short . >&2
cd "$root"
exec "$build/bench" -raptrack "$build/raptrack" -workdir "$build/work" -spans bench/out "$@"
