#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; all
# arguments go to the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-shuffle --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the go command's own configuration, the binary,
# temporary service state and traces all stay under .bench_build/ in the
# working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
