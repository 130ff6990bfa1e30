#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload repart_heavy --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# stays under .bench_build/ in the current directory: the Go build cache,
# the binary (bin/) and the span files of traced runs (spans/).
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go -C perfbench build -buildvcs=false -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
