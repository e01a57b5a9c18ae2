#!/usr/bin/env bash
# Regenerates BENCH_router.json: the SABRE-style bidirectional lookahead
# router versus the frozen greedy-walk baseline (routeGreedy) on the
# Table 1 workloads — SWAP counts, routed ESP and compile latency per
# workload, plus TopK(k=4) wall-clock against the PR 2 numbers recorded
# in BENCH_compiler.json.
#
# Usage: scripts/bench_router.sh [output.json]
#
# The measurement itself lives in TestRouterBenchReport
# (internal/mapper/router_report_test.go), which skips unless
# EDM_BENCH_ROUTER_OUT is set; keeping it in Go lets the report compute
# ESP ratios and geo-means exactly instead of re-parsing benchmark text.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_router.json}"
case "$OUT" in
/*) ABS="$OUT" ;;
*) ABS="$(pwd)/$OUT" ;;
esac

# A failed bar fails the script (pipefail); the report is still
# written, for inspection.
EDM_BENCH_ROUTER_OUT="$ABS" go test -run 'TestRouterBenchReport$' -v -count=1 ./internal/mapper |
	grep -v '^=== RUN\|^--- PASS'

if [ ! -s "$ABS" ]; then
	echo "bench_router: report was not written" >&2
	exit 1
fi
echo "wrote $OUT"
