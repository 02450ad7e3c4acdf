#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it:
#
#   bash bench/run.sh --workload served_read --seed 1 --seconds 14 --trace 0
#
# Everything the build and the run leave behind stays inside the checkout:
# the Go caches and the binary under .bench_build/, reports, span files and
# temporary WAL and snapshot files under bench/out/. Run it from the
# repository root. It fails, printing no result, where the program's source
# is missing.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local

(cd bench && go build -o "$build/bench" .) >&2
exec "$build/bench" -out bench/out "$@"
