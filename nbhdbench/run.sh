#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash nbhdbench/run.sh --workload paper-sweep --seed 1 --seconds 6 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# per-seed repeat records all live in .bench_build/ under that root, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

# HOME also holds the go command's local telemetry counters.
(
	cd "$src"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOWORK=off GOFLAGS= \
		GOTOOLCHAIN=local GOPROXY=off
	go build -o "$out/nbhdbench" .
)
exec "$out/nbhdbench" -state-dir "$out/nbhdbench-state" "$@"
