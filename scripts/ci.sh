#!/usr/bin/env bash
# Local CI gate: vet, build, full tests, then a race-detector pass over the
# packages with real concurrency (parallel ensemble members in core, trial
# workers and the program cache in backend, the work-split VF2 driver
# in graph, the parallel candidate pipeline in mapper, predicted-IST fan-out
# in selector, and the cell-parallel sweeps in experiment).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
UNFORMATTED="$(gofmt -l cmd internal)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping"
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrent packages) =="
go test -race ./internal/core ./internal/backend ./internal/graph \
	./internal/mapper ./internal/selector ./internal/experiment

echo "== router determinism at GOMAXPROCS=1 =="
# The parallel run above exercises the sweeps at full width; this pins the
# serial end of the router's bit-identical-across-GOMAXPROCS contract.
GOMAXPROCS=1 go test -race -count=1 -run 'Deterministic|Router' ./internal/mapper

echo "== campaign cache determinism (DESIGN.md §9) =="
# Cached concurrent sweeps must be byte-identical to the frozen uncached
# serial path, under the race detector, and the memo compiler to the
# plain one (UncachedView); the memo singleflight core gets its own race
# pass.
go test -race -count=1 -run 'Campaign|TopKCache|RunCache|PrefixStability|UncachedView' \
	./internal/experiment ./internal/mapper ./internal/backend
go test -race -count=1 ./internal/memo

echo "== serving stack: cancellation + singleflight under race (DESIGN.md §12) =="
# The detached-build cancellation contract: waiters whose contexts expire
# must detach without poisoning cache entries, at full GOMAXPROCS under
# the race detector, across the memo core, the ctx-threaded hot paths and
# the serve tier/admission layers.
go test -race -count=1 -run 'Ctx|Reentrant|Checked|Tier|Admission' \
	./internal/memo ./internal/pool ./internal/backend ./internal/mapper ./internal/core
go test -race -count=1 ./internal/serve

echo "== edmd smoke: CLI/server byte identity =="
# Start the server, post the same job the CLI runs, and require the text
# responses to be byte-for-byte identical — the determinism contract over
# HTTP. Also proves malformed payloads get a 4xx, not a dead process: a
# circuit with a NaN gate angle once crashed the server from a trial
# worker, so after it is refused the server must still answer /healthz.
# Last, POST /v1/advance moves the server to window 1, where the same job
# must match `edm run -window 1` byte for byte.
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"; [ -n "${EDMD_PID:-}" ] && kill "$EDMD_PID" 2>/dev/null || true' EXIT
go build -o "$SMOKE/edm" ./cmd/edm
go build -o "$SMOKE/edmd" ./cmd/edmd
"$SMOKE/edm" run -workload bv-6 -k 2 -trials 512 -seed 7 >"$SMOKE/cli.txt"
"$SMOKE/edm" run -window 1 -workload bv-6 -k 2 -trials 512 -seed 7 >"$SMOKE/cli1.txt"
"$SMOKE/edmd" serve -addr 127.0.0.1:0 >"$SMOKE/serve.log" &
EDMD_PID=$!
ADDR=""
for _ in $(seq 1 100); do
	ADDR="$(sed -n 's/^edmd listening on \([^ ]*\).*/\1/p' "$SMOKE/serve.log")"
	[ -n "$ADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] || { echo "edmd never came up" >&2; cat "$SMOKE/serve.log" >&2; exit 1; }
curl -sf -X POST "http://$ADDR/v1/jobs?format=text" \
	-d '{"workload":"bv-6","k":2,"trials":512,"seed":7}' >"$SMOKE/srv.txt"
cmp "$SMOKE/cli.txt" "$SMOKE/srv.txt"
BAD_STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/jobs" -d 'not json')"
[ "$BAD_STATUS" = "400" ] || { echo "malformed job got $BAD_STATUS, want 400" >&2; exit 1; }
NAN_STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/jobs" \
	-d '{"circuit":"qubits 2\ncbits 2\nx 0\nrz(NaN) 0\nmeasure 0 -> 0\nmeasure 1 -> 1\n","trials":1024}')"
[ "$NAN_STATUS" = "400" ] || { echo "rz(NaN) job got $NAN_STATUS, want 400" >&2; exit 1; }
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "edmd stopped answering after the rz(NaN) job" >&2; exit 1; }
curl -sf "http://$ADDR/metrics" | grep -q '^edmd_job_cache_misses_total 1$'
curl -sf "http://$ADDR/healthz" >/dev/null
curl -sf -X POST "http://$ADDR/v1/advance" | grep -q '"window":1' ||
	{ echo "advance did not report window 1" >&2; exit 1; }
curl -sf -X POST "http://$ADDR/v1/jobs?format=text" \
	-d '{"workload":"bv-6","k":2,"trials":512,"seed":7}' >"$SMOKE/srv1.txt"
cmp "$SMOKE/cli1.txt" "$SMOKE/srv1.txt"
kill -TERM "$EDMD_PID"
wait "$EDMD_PID" || { echo "edmd exited nonzero on SIGTERM" >&2; exit 1; }
EDMD_PID=""
echo "edmd smoke OK"

echo "== edmd wide-device smoke: 127-qubit heavy-hex (stabilizer engine) =="
# The same byte-identity contract on a device no statevector could
# represent: greycode-24 on eagle127 must serve the alternating golden
# output, match the CLI byte for byte, and actually run on the tableau
# (visible through the /metrics stabilizer counters).
"$SMOKE/edm" run -device eagle127 -workload greycode-24 -k 2 -trials 512 -seed 7 >"$SMOKE/cli127.txt"
"$SMOKE/edmd" serve -addr 127.0.0.1:0 -device eagle127 >"$SMOKE/serve127.log" &
EDMD_PID=$!
ADDR=""
for _ in $(seq 1 100); do
	ADDR="$(sed -n 's/^edmd listening on \([^ ]*\).*/\1/p' "$SMOKE/serve127.log")"
	[ -n "$ADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] || { echo "wide edmd never came up" >&2; cat "$SMOKE/serve127.log" >&2; exit 1; }
curl -sf -X POST "http://$ADDR/v1/jobs?format=text" \
	-d '{"workload":"greycode-24","k":2,"trials":512,"seed":7}' >"$SMOKE/srv127.txt"
cmp "$SMOKE/cli127.txt" "$SMOKE/srv127.txt"
grep -q '^101010101010101010101010 ' "$SMOKE/srv127.txt" ||
	{ echo "greycode-24 golden output missing from the served distribution" >&2; exit 1; }
curl -sf "http://$ADDR/metrics" | grep -q '^edmd_engine_stab_trials_total [1-9]' ||
	{ echo "stabilizer engine never engaged on eagle127" >&2; exit 1; }
kill -TERM "$EDMD_PID"
wait "$EDMD_PID" || { echo "wide edmd exited nonzero on SIGTERM" >&2; exit 1; }
EDMD_PID=""
echo "wide-device smoke OK"

echo "== drift-tracked pool identity (DESIGN.md §11) =="
# The drift-tracked pools must be bit-identical to full recompilation at
# any GOMAXPROCS: serial pins the GOMAXPROCS=1 end, the full-width pass
# runs under the race detector because pool upgrades re-score candidates
# in parallel and replace generation-tagged memo entries in place.
GOMAXPROCS=1 go test -race -count=1 -run 'Tracking|DriftCampaign|GetGen|DriftLocal' \
	./internal/mapper ./internal/experiment ./internal/memo ./internal/device
go test -race -count=1 -run 'Tracking|DriftCampaign|GetGen|DriftLocal' \
	./internal/mapper ./internal/experiment ./internal/memo ./internal/device

echo "== trajectory engine determinism (DESIGN.md §10) =="
# The tape-tree engine must match the frozen legacy loop byte for byte
# at GOMAXPROCS=1 and at full width; both passes run under the race
# detector because the tape tree and its checkpoints are shared
# read-only across workers (and each worker's tally is flushed once).
# TerminalDrop and LazyEntry cover the register schedule (DESIGN.md §15):
# circuits whose measurements drop only partly or down to width 0, and
# circuits whose qubits meet crosstalk, idle damping, diagonal gates or a
# measurement before they enter the register. ParallelMatchesSerial
# runs every trial loop at widths 1, 2 and 4 inside each pass.
# DrawOperands compares every operand a replayed draw compares against
# with the legacy loop's, bit for bit (DESIGN.md §10, pending updates).
# Growth pins the lazily grown tree: fresh, grown and legacy Counts
# agree, concurrent Runs grow one plan, and the machine budget stops
# growth.
GOMAXPROCS=1 go test -race -count=1 -run 'PrefixEngine|PrefixDrawOrder|PrefixPlan|TerminalDrop|LazyEntry|ParallelMatchesSerial|DrawOperands|Growth' ./internal/backend
go test -race -count=1 -run 'PrefixEngine|PrefixDrawOrder|PrefixPlan|TerminalDrop|LazyEntry|ParallelMatchesSerial|DrawOperands|Growth' ./internal/backend

echo "== batched replay identity (DESIGN.md §15) =="
# The batched divergent-suffix scheduler must match the legacy loop byte
# for byte and retire every divergent trial through exactly one unit:
# GOMAXPROCS=1 pins the serial scheduler, the full-width pass runs the
# two-phase walk/replay pipeline, with replay units claimed from one
# shared cursor, under the race detector. TerminalDrop pins batch lanes
# narrowing together at every terminal measurement, LazyEntry widening
# together at every entry. ParallelMatchesSerial pins the batched engine
# at widths 1, 2 and 4 with more replay units than workers. DrawOperands
# pins the population passes that serve every group before any draw.
# Growth replays on trees that earlier Runs grew, concurrently too.
GOMAXPROCS=1 go test -race -count=1 -run 'BatchedReplay|MaxLanesFor|TerminalDrop|LazyEntry|ParallelMatchesSerial|DrawOperands|Growth' ./internal/backend
go test -race -count=1 -run 'BatchedReplay|MaxLanesFor|TerminalDrop|LazyEntry|ParallelMatchesSerial|DrawOperands|Growth' ./internal/backend

echo "== statevec batch kernels: purego path =="
# The batch kernels' scalar fallbacks must pin the same frozen oracle
# as the AVX2 path; -tags purego forces them on an amd64 host. The
# ProjectDrop and Enter tests run here too, on the scalar bodies, and so
# do the fused population-pass tests.
go test -tags purego -count=1 ./internal/statevec

echo "== replay bench non-regression (committed BENCH_replay.json) =="
# The committed replay report must never regress the recorded throughput
# of the previous commit. BENCH_replay.json is the last stdout line of
#   bash perfbench/run.sh --workload replay --seed 201 --seconds 20
# This compares recorded files (not a live measurement), so it is
# deterministic: it fails only when someone commits a report whose
# trials_per_s is below what the prior commit shipped.
if git rev-parse --verify -q HEAD:BENCH_replay.json >/dev/null; then
	git show HEAD:BENCH_replay.json >"$SMOKE/bench_replay_head.json"
	python3 - "$SMOKE/bench_replay_head.json" <<-'PY'
	import json, sys
	def rate(path):
	    return json.load(open(path))["metrics"]["trials_per_s"]["value"]
	prior, current = rate(sys.argv[1]), rate("BENCH_replay.json")
	print(f"replay trials/s: prior commit {prior:.0f}, working tree {current:.0f}")
	if current < prior:
	    raise SystemExit("BENCH_replay.json trials_per_s regressed vs the prior commit")
	PY
else
	echo "no committed BENCH_replay.json; skipping"
fi

echo "== stabilizer engine identity (DESIGN.md §13) =="
# Fully-Clifford schedules route to the tableau engine; its histograms
# must be byte-identical to both statevector engines at GOMAXPROCS=1
# and at full stripe width, under the race detector (the snapshot
# tableau is shared read-only across workers). The stabilizer and
# bitset packages carry the unit-level property tests.
GOMAXPROCS=1 go test -race -count=1 -run 'Stabilizer' ./internal/backend
go test -race -count=1 -run 'Stabilizer' ./internal/backend
go test -race -count=1 ./internal/stabilizer ./internal/bitset

echo "== statevec kernel bit-identity (SoA + AVX2 vs frozen scalar) =="
# The SoA kernels must pin every amplitude bit against the frozen
# complex128 loops on both the scalar and (where available) AVX2 paths,
# the low-qubit layouts exhaustively (every ordered pair of a dense 4x4,
# drops and entries on qubits 0-3, 1-5 lanes), and the fused population
# passes (pending diagonal updates, several lanes per pass, reused
# projection norms) against the unfused calls.
go test -count=1 -run 'KernelsBitIdentical|Apply2QEveryPair|LowQubitsBitIdentical|PopArgsLayout|PopsAfter|ApplyDiags|PopsLanes|CollapseReusesNorm' ./internal/statevec

echo "CI OK"
