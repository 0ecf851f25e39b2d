#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the current directory,
# which must be the root of a checkout of the repository. Every build and
# output file goes under .bench_build/ in that directory. Arguments are
# passed through, e.g.:
#
#	bash benchmark/run.sh --workload serve-pcg --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/due-perf" .)
exec "$out/due-perf" "$@"
