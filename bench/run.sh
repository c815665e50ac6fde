#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
#   bash bench/run.sh                                  # 5 rounds + traced round, table on stdout
#   bash bench/run.sh -json out.json                   # same, plus the JSON report
#   bash bench/run.sh --workload fig2-paper --seed 3 --seconds 28 --trace 0
#   bash bench/run.sh -compare a.json b.json
#
# Everything the build leaves behind (binary, Go build cache, temp files)
# stays under .bench_build/ in the repository root, which is where the
# benchmark must be started from: it reads the committed results/*.csv.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd bench && go build -buildvcs=false -o "$out/openspace-benchmark" .)
exec "$out/openspace-benchmark" "$@"
