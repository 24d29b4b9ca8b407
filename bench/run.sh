#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and binaries all stay in
# .bench_build/ under the root, so nothing is read from or written to the
# user's home directory, and the toolchain never downloads anything.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/paper ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
	echo "bench: run from the repository root (go.mod, cmd/paper, internal/ or bench/ missing)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=

go build -C bench -o "$build/bench" .
exec "$build/bench" -build "$build" "$@"
