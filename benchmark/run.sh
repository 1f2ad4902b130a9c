#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash benchmark/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a cmppower checkout. Every file the toolchain
# writes (build cache, binary, span dumps) goes under .bench_build/ there,
# and the toolchain is kept offline.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmppower.go" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark/run.sh: $root is not the root of a cmppower checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -repo "$root" -spans "$build/spans" "$@"
