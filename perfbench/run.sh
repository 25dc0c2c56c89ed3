#!/usr/bin/env bash
# Builds the benchmark against the repro checkout it sits in, then runs it.
#
#   bash perfbench/run.sh --workload mcf --seed 1 --seconds 50 --trace 0
#
# Run from the checkout root. Every build product (binary, Go build cache)
# goes under .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repro checkout (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
