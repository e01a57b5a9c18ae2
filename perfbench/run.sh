#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload campaign|serve|replay --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache and trace files stay under .bench_build/.
# Without the repository's sources beside perfbench/ the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
