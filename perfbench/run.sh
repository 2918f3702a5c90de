#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-r18 --seed 1 --seconds 28 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root of a full checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
