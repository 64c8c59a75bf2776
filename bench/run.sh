#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload race-elided --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare A.jsonl B.jsonl
#
# Everything the build and the runs leave behind goes under .bench_build/
# at the repository root: the Go build cache, the binary and trace files.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$here" && go build -o "$out/bench" .) >&2
exec "$out/bench" "$@"
