#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments. Run from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload stat-opt --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spans,
# count records) goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

# Build output goes to stderr: the last line of stdout is the result.
(cd "$src" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -outdir "$out" "$@"
