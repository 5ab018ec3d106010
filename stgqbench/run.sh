#!/usr/bin/env bash
# Builds the stgqbench binary from source inside the checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash stgqbench/run.sh --workload cluster_read --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory (the Go build cache included).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
unset GOMAXPROCS

(cd "$root/stgqbench" && go build -o "$build/stgqbench" .) >&2
exec "$build/stgqbench" "$@"
