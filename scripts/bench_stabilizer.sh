#!/usr/bin/env bash
# Regenerates BENCH_stabilizer.json: the DESIGN.md §13 stabilizer
# tableau engine versus the tape-tree statevector engine on fully
# Clifford compiled schedules, plus tableau-only throughput on the
# heavy-hex devices (falcon27, eagle127) that exceed the statevector
# width limit.
#
# Usage: scripts/bench_stabilizer.sh [output.json]
#
# The measurement itself lives in TestStabilizerBenchReport
# (internal/backend/stabilizer_report_test.go), which skips unless
# EDM_BENCH_STABILIZER_OUT is set; keeping it in Go lets the report
# assert outcome byte-equality between the two engines in-process and
# enforce the >= 10x clifford/q12 acceptance bar.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_stabilizer.json}"
case "$OUT" in
/*) ABS="$OUT" ;;
*) ABS="$(pwd)/$OUT" ;;
esac

# A failed bar fails the script (pipefail); the report is still
# written, for inspection.
EDM_BENCH_STABILIZER_OUT="$ABS" go test -run 'TestStabilizerBenchReport$' -v -count=1 -timeout 30m ./internal/backend |
	grep -v '^=== RUN\|^--- PASS'

if [ ! -s "$ABS" ]; then
	echo "bench_stabilizer: report was not written" >&2
	exit 1
fi
echo "wrote $OUT"
