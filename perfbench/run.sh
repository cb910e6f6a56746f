#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload analyze --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --smoke
# Build outputs, the Go build cache and trace files stay under .bench_build/
# in the repository root; nothing is fetched from the network.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

go -C perfbench build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" "$@"
