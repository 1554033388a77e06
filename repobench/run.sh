#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash repobench/run.sh --workload solve-flagship --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the Go toolchain and the
# benchmark write (build and module caches, the binary, reports and span
# files) goes under .bench_build/repobench in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/repobench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/repobench" .)
cd "$root"
exec "$out/repobench" --out "$out" "$@"
