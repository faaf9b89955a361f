#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; run it from the
# repository root:
#
#   bash bench/run.sh --workload micro --seed 1 --seconds 10 --trace 0
#
# Every flag goes to the benchmark binary (see bench/README.md). The Go
# build cache, temporary files and outputs stay under .bench_build/, so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config GOPATH=$out/home/go
# Build from the local toolchain and sources only; never download.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Build messages go to stderr: the last line of stdout is the result.
go -C bench test -c -o "$out/bench.test" . >&2
cd bench
exec "$out/bench.test" -test.timeout=170s "$@"
