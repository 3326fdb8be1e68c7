#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload websearch-ll --seed 1 --seconds 25 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the root, so
# the benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C benchmark build -o "$out/opera-benchmark" .
exec "$out/opera-benchmark" "$@"
