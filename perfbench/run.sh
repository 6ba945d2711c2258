#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload join-pkfk --seed 1 --seconds 30 --trace 0
#
# Run from the root of the repository. The build cache and the binary
# live in .bench_build/ there, so the benchmark writes nothing outside
# the checkout. Without the repository around it (only BENCHMARK.json
# and perfbench/), the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$bench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$bench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
