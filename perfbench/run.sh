#!/usr/bin/env bash
# Builds the benchmark against the filesystem sources of this checkout and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hotdir-create --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every file the build and the run
# write stays under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"

export HOME=$out/home XDG_CONFIG_HOME=$out/home XDG_CACHE_HOME=$out/home
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod GOENV=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
