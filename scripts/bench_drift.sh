#!/usr/bin/env bash
# Regenerates BENCH_drift.json: the drifting campaign (DESIGN.md §11)
# compiled through drift-tracked pools — each window re-places,
# re-routes and re-scores the cached pools — versus compiling every
# window from scratch.
#
# Usage: scripts/bench_drift.sh [output.json]
#
# The measurement itself lives in TestDriftBenchReport
# (internal/experiment/drift_report_test.go), which skips unless
# EDM_BENCH_DRIFT_OUT is set; keeping it in Go lets the report assert
# cell bit-equality between the two campaigns in-process on every run,
# and enforce the >= 2x steady-state speedup bar on the median of three
# runs of each campaign.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_drift.json}"
case "$OUT" in
/*) ABS="$OUT" ;;
*) ABS="$(pwd)/$OUT" ;;
esac

# A failed bar or a cell mismatch fails the script; the report is still
# written, for inspection.
EDM_BENCH_DRIFT_OUT="$ABS" go test -run 'TestDriftBenchReport$' -v -count=1 -timeout 60m ./internal/experiment |
	grep -v '^=== RUN\|^--- PASS'

if [ ! -s "$ABS" ]; then
	echo "bench_drift: report was not written" >&2
	exit 1
fi
echo "wrote $OUT"
