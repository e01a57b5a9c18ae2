package backend

import (
	"testing"

	"edm/internal/rng"
)

// TestBatchedReplayStats pins the occupancy accounting: every divergent
// trial is replayed through exactly one unit, units and buckets are
// formed whenever divergences exist, and lane usage is at least one per
// unit.
func TestBatchedReplayStats(t *testing.T) {
	ResetEngineStats()
	m := noisyMachine(7)
	exe := benchCircuit(10)
	const trials = 4000
	if _, err := m.Run(exe, trials, rng.New(99)); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := EngineStatsSnapshot()
	if s.FullDominantTrials+s.DivergentTrials != trials {
		t.Fatalf("walk accounting: %d dominant + %d divergent != %d trials",
			s.FullDominantTrials, s.DivergentTrials, trials)
	}
	if s.DivergentTrials == 0 {
		t.Fatalf("workload produced no divergent trials; stats test needs a noisier case")
	}
	if s.BatchTrials != s.DivergentTrials {
		t.Errorf("BatchTrials = %d, want %d (every divergent trial retires through one unit)",
			s.BatchTrials, s.DivergentTrials)
	}
	if s.BatchBuckets == 0 || s.BatchUnits < s.BatchBuckets {
		t.Errorf("bucket/unit accounting: buckets=%d units=%d", s.BatchBuckets, s.BatchUnits)
	}
	if s.BatchLanes < s.BatchUnits {
		t.Errorf("lane accounting: lanes=%d < units=%d", s.BatchLanes, s.BatchUnits)
	}
	if s.BatchUnits > 0 && s.BatchTrials/s.BatchUnits < 1 {
		t.Errorf("mean batch size below 1: trials=%d units=%d", s.BatchTrials, s.BatchUnits)
	}
}

func TestMaxLanesFor(t *testing.T) {
	for n := 0; n <= 30; n++ {
		lanes := maxLanesFor(n)
		if lanes < 4 || lanes > 128 {
			t.Fatalf("maxLanesFor(%d) = %d outside [4, 128]", n, lanes)
		}
	}
	if got := maxLanesFor(14); got != 128 {
		t.Errorf("maxLanesFor(14) = %d, want 128", got)
	}
	if got := maxLanesFor(24); got != 4 {
		t.Errorf("maxLanesFor(24) = %d, want 4 (memory-bound clamp)", got)
	}
}
