#!/usr/bin/env bash
# Builds the LMS end-to-end benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash lmsbench/run.sh --workload agent-ingest --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the benchmark's data directories
# all stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go -C "$root/lmsbench" build -o "$build/lmsbench" .
exec "$build/lmsbench" "$@"
