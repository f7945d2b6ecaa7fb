#!/usr/bin/env bash
# Builds the benchmark from the checkout it is called from and runs it
# with the arguments given. Everything the build and the run write (the
# Go build cache, the binary, temporary WAL directories) stays under
# .bench_build in that checkout.
set -euo pipefail
root=$PWD
[ -f "$root/go.mod" ] && [ -d "$root/internal" ] || {
	echo "bench/run.sh: run from the repository root (go.mod and internal/ not found in $root)" >&2
	exit 1
}
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOFLAGS= GOTOOLCHAIN=local GOPROXY=off TMPDIR=$out/tmp
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
