#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository
# root:
#
#   bash bench/run.sh --workload sa-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, span files) stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
