#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash wafbench/run.sh --workload graph-sim --seed 1 --seconds 30 --trace 0
# Run from the repository root. Every build product, cache and output
# stays under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters)
# inside the root too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/wafbench" && go build -buildvcs=false -o "$out/wafbench.bin" .) >&2
exec "$out/wafbench.bin" "$@"
