#!/usr/bin/env bash
# Builds ratd and the benchmark from source, then runs one benchmark
# invocation with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload predict-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, Go build cache, span files)
# stays under .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0
go build -o "$out/ratd" ./cmd/ratd >&2
go -C perfbench build -o "../$out/perfbench" . >&2
exec "$out/perfbench" -ratd "$out/ratd" "$@"
