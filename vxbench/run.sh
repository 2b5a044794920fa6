#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash vxbench/run.sh --workload live-darknet --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that directory: the Go build cache,
# the binary, and the result and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# With telemetry on (the default is "local") the go command starts a
# detached sidecar process that can outlive this script; switch it off.
mkdir -p "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"

go build -o "$out/vxbench" ./vxbench
exec "$out/vxbench" -out "$out/vxbench-results" "$@"
