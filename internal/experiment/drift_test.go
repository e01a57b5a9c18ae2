package experiment

import (
	"reflect"
	"testing"

	"edm/internal/mapper"
)

// stripTimings zeroes the wall-clock fields so results can be compared
// structurally across runs.
func stripTimings(r DriftResult) DriftResult {
	r.CompileMsTotal, r.CompileMsSteady = 0, 0
	for i := range r.Rounds {
		r.Rounds[i].CompileMs = 0
	}
	return r
}

// cellsOf projects just the per-round cells (the physics: PSTs, ISTs and
// output-distribution fingerprints).
func cellsOf(r DriftResult) [][]DriftCell {
	out := make([][]DriftCell, len(r.Rounds))
	for i, rd := range r.Rounds {
		out[i] = rd.Cells
	}
	return out
}

// TestDriftCampaignIncrementalMatchesFull is the end-to-end exactness
// pin: the campaign compiled through drift-tracked pools and the one
// that compiles every window from scratch produce bit-identical cells —
// same PSTs, same ISTs, same output-distribution fingerprints.
func TestDriftCampaignIncrementalMatchesFull(t *testing.T) {
	s := QuickDriftSetup()

	ResetCampaignCaches()
	inc := RunDrifting(s)
	ResetCampaignCaches()
	full := runDrifting(s, false)

	if !reflect.DeepEqual(cellsOf(inc), cellsOf(full)) {
		t.Fatal("tracked campaign cells differ from full recompilation")
	}
	if inc.Stats.Pools == 0 || inc.Stats.Rescored == 0 {
		t.Fatalf("tracked campaign never upgraded a pool: %+v", inc.Stats)
	}
	if full.Stats != (mapper.RecompileStats{}) {
		t.Fatalf("from-scratch campaign recorded recompile stats: %+v", full.Stats)
	}
}

// TestDriftCampaignRepeatable checks determinism: the same setup run
// twice produces identical results modulo wall-clock timings.
func TestDriftCampaignRepeatable(t *testing.T) {
	s := QuickDriftSetup()
	s.Cycles = 3
	ResetCampaignCaches()
	a := stripTimings(RunDrifting(s))
	ResetCampaignCaches()
	b := stripTimings(RunDrifting(s))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("drifting campaign is not deterministic across runs")
	}
}

// TestDriftCampaignSurvival checks the reporting plumbing: upgrades are
// counted from cycle 1 on, survival is a valid fraction, and the counter
// deltas across rounds sum to the campaign aggregate.
func TestDriftCampaignSurvival(t *testing.T) {
	s := QuickDriftSetup()
	ResetCampaignCaches()
	res := RunDrifting(s)
	if len(res.Rounds) != s.Cycles {
		t.Fatalf("got %d rounds, want %d", len(res.Rounds), s.Cycles)
	}
	var sum mapper.RecompileStats
	for _, rd := range res.Rounds {
		d := rd.Recompile
		if rd.Cycle == 0 {
			if d != (mapper.RecompileStats{}) {
				t.Fatalf("cycle 0 recorded upgrades: %+v", d)
			}
			continue
		}
		if d.Pools != uint64(len(s.Workloads)) {
			t.Fatalf("cycle %d: %d pool upgrades, want one per workload", rd.Cycle, d.Pools)
		}
		if sv := d.Survival(); sv < 0 || sv > 1 {
			t.Fatalf("cycle %d: survival %g out of range", rd.Cycle, sv)
		}
		sum.Pools += d.Pools
		sum.FullRebuilds += d.FullRebuilds
		sum.Rescored += d.Rescored
		sum.Rerouted += d.Rerouted
		sum.CheckFailed += d.CheckFailed
		sum.Dropped += d.Dropped
	}
	if sum != res.Stats {
		t.Fatalf("per-round recompile deltas sum to %+v, campaign aggregate %+v", sum, res.Stats)
	}
	if res.CompileMsSteady <= 0 || res.CompileMsTotal < res.CompileMsSteady {
		t.Fatalf("timing accounting off: total %g steady %g", res.CompileMsTotal, res.CompileMsSteady)
	}
}
