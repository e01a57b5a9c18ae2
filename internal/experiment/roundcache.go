package experiment

import (
	"math"

	"edm/internal/backend"
	"edm/internal/memo"
)

// The campaign memoization layer (DESIGN.md §9): every figure of a
// campaign revisits the same rounds — Fig7, Fig9 and Fig11 each call
// Setup.Round(i) for every (workload, round) cell — and before this
// cache each cell regenerated the calibration, re-drifted it and rebuilt
// the runner. Rounds are pure functions of (Setup fingerprint, round
// index), so one memoized instance serves every cell. Each cached round
// owns its compiler, whose ensemble cache builds each circuit's pool
// once, and its machine, whose trial-run cache simulates repeated
// (executable, trials, stream) runs across figures once.

// roundCacheCap bounds the Round cache. A campaign touches Rounds (10 at
// paper scale) entries per setup; 64 leaves room for several setups —
// e.g. tests sweeping seeds — before FIFO eviction starts.
const roundCacheCap = 64

var (
	roundCtr   memo.Counters
	roundCache = memo.NewShared[*Round](roundCacheCap, &roundCtr)
)

// fingerprint identifies everything Round materialization depends on:
// the seed, the drift magnitude, and the machine definition. Rounds,
// Trials and K are deliberately excluded — they scale how rounds are
// *used*, not what Round(i) builds — so setups differing only in those
// share cached rounds.
func (s Setup) fingerprint() uint64 {
	h := memo.Mix(memo.Seed(), s.Seed)
	h = memo.Mix(h, math.Float64bits(s.Drift))
	h = memo.Mix(h, s.Topo.Fingerprint())
	return memo.Mix(h, s.Profile.Fingerprint())
}

// RoundCacheStats snapshots the Round cache counters.
func RoundCacheStats() memo.Stats { return roundCtr.Stats() }

// BackendCacheStats aggregates the compiled-program and trial-run cache
// counters across every machine held by the Round cache, so cmd/edm can
// print one backend line per campaign.
func BackendCacheStats() (prog backend.CacheStats, run memo.Stats) {
	roundCache.Each(func(_ uint64, r *Round) {
		ps := r.Machine.CacheStats()
		prog.Hits += ps.Hits
		prog.Misses += ps.Misses
		prog.Waits += ps.Waits
		prog.Evictions += ps.Evictions
		prog.Entries += ps.Entries
		rs := r.Machine.RunCacheStats()
		run.Hits += rs.Hits
		run.Misses += rs.Misses
		run.Waits += rs.Waits
		run.Evictions += rs.Evictions
		run.Entries += rs.Entries
	})
	return prog, run
}

// PlanStats sums the tape-tree plans of every machine held by the Round
// cache (backend.Machine.PlanStats).
func PlanStats() backend.PlanStats {
	var s backend.PlanStats
	roundCache.Each(func(_ uint64, r *Round) {
		ps := r.Machine.PlanStats()
		s.Plans += ps.Plans
		s.Leaves += ps.Leaves
		s.ForksGrown += ps.ForksGrown
		s.CheckpointBytes += ps.CheckpointBytes
		s.TapeBytes += ps.TapeBytes
	})
	return s
}

// ResetCampaignCaches drops every campaign-level cache: the rounds, and
// with them the compilers' ensemble caches and the machines' run caches
// that each round owns. Tests and benchmarks call it to measure cold
// starts.
func ResetCampaignCaches() { roundCache.Reset() }
