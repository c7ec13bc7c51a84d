#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; arguments pass through to the benchmark, e.g.
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and traced-run files stay under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
