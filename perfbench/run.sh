#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload paper-inproc --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. Build output, the Go build cache,
# sockets and span files all stay under .bench_build/ in that root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod expected)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
