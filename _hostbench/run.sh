#!/usr/bin/env bash
# Builds the host time-to-answer benchmark from source and runs it.
# Run from the repository root:
#
#   bash _hostbench/run.sh --workload tier-rocksdb --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory, and no
# module is fetched: the benchmark's only dependency is the repository
# module beside it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go -C _hostbench build -o "$out/hostbench" .
exec "$out/hostbench" "$@"
