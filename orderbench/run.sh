#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it.
#
#   bash orderbench/run.sh --workload causal-paced --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and the run's scratch files all go
# under $CARGO_TARGET_DIR (default .bench_build) in the repository root,
# so a run reads and writes nothing outside the tree but the toolchain.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
    GOTMPDIR="$out/tmp" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$bench" && go build -buildvcs=false -o "$out/orderbench" .)
exec "$out/orderbench" -root "$root" -work "$out/work" "$@"
