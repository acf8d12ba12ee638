#!/usr/bin/env bash
# Builds the serving benchmark from the sources of this checkout and runs it:
#
#   bash servebench/run.sh --workload paper-shared --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build products, the Go build cache and
# the benchmark's result and span files all stay under .bench_build/ in the
# current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/servebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -out "$out" "$@"
