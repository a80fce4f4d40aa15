#!/usr/bin/env bash
# Builds the benchmark and the cbmad daemon from this checkout's sources into
# .bench_build/, then runs one workload:
#
#   bash perfbench/run.sh --workload fig8a-sweep --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache lives in .bench_build
# too, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$out/perfbench" .
go build -C perfbench -o "$out/cbmad" cbma/cmd/cbmad
exec "$out/perfbench" -cbmad "$out/cbmad" -work "$out/work" "$@"
