#!/usr/bin/env bash
# Builds the benchmark (and the srmsort module it drives) from source in
# the current checkout, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sort-fixed16-mem --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the build and the
# run write lands in .bench_build/ there; no network access is needed.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
if [ ! -f "$bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the root of an srmsort checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build/run" "$@"
