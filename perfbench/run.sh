#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, temporary files) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
