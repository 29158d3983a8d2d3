#!/usr/bin/env bash
# Builds the benchmark and irserved from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload served-small-mix --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace files all stay under
# .bench_build/ in the checkout; the toolchain never reaches the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Turn Go telemetry off for this config directory: otherwise the first go
# command run with it forks a detached upload sidecar that outlives this
# script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -buildvcs=false -o "$out/irserved" ./cmd/irserved
go build -C bench -buildvcs=false -o "$out/bench" .
exec "$out/bench" -irserved "$out/irserved" -trace-dir "$out/trace" "$@"
