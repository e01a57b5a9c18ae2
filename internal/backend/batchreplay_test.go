package backend

import (
	"math"
	"sync"
	"testing"

	"edm/internal/rng"
	"edm/internal/statevec"
	"edm/internal/workloads"
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

// drawRec is one draw's operands as testHookDraw reports them.
type drawRec struct {
	step int
	a, b float64
}

// TestBatchedReplayDrawOperands pins every operand a replayed draw
// compares its uniform against — each Pauli rate, damping branch pair
// and P(1) — to the legacy loop's, bit for bit. Counts identity only
// notices a numeric slip when some uniform lands between the two
// values; this sees the last bit of every operand the fused population
// passes, pending updates and reused norms feed. For every divergent
// trial of the entry and drop cases and of greycode-12 at 2,000 trials,
// the replay's records must equal the legacy loop's from the trial's
// checkpoint step on.
func TestBatchedReplayDrawOperands(t *testing.T) {
	cases := append(fixedEntryCases(), fixedDropCases()...)
	grey := workloads.Greycode("101101001011").Circuit.Remap(benchPath[:12], 14)
	cases = append(cases, dropCase{name: "greycode-12", circuit: grey})
	defer func() { testHookDraw = nil }()
	const trials = 2000
	compared := 0
	for _, tc := range cases {
		m := New(calFor(tc))
		m.engine = engineStatevector
		prog, err := m.getProgram(tc.circuit)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		var mu sync.Mutex
		replayed := make(map[int][]drawRec)
		testHookDraw = func(trial, step int, a, b float64) {
			if trial < 0 {
				t.Errorf("%s: the legacy loop drew inside a default-engine run", tc.name)
				return
			}
			mu.Lock()
			replayed[trial] = append(replayed[trial], drawRec{step, a, b})
			mu.Unlock()
		}
		root := rng.New(61)
		if _, err := m.Run(tc.circuit, trials, root); err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		plan := m.planFor(prog)
		var legacy []drawRec
		testHookDraw = func(_, step int, a, b float64) { legacy = append(legacy, drawRec{step, a, b}) }
		s := statevec.NewState(prog.nLocal)
		bits := make([]int, prog.numClbits)
		divergent := 0
		for trial := 0; trial < trials; trial++ {
			node, divStep, _ := walkTape(plan, root.DeriveN("trial", trial))
			got, ok := replayed[trial]
			if divStep < 0 {
				if ok {
					t.Fatalf("%s trial %d: dominant trial replayed %d draws", tc.name, trial, len(got))
				}
				continue
			}
			divergent++
			ck := node.checkpointBefore(divStep)
			legacy = legacy[:0]
			m.runTrajectory(prog, s, bits, root.DeriveN("trial", trial))
			want := legacy
			for len(want) > 0 && want[0].step < ck.stepIdx {
				want = want[1:]
			}
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: replay drew %d times from step %d, legacy %d", tc.name, trial, len(got), ck.stepIdx, len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.step != w.step || math.Float64bits(g.a) != math.Float64bits(w.a) || math.Float64bits(g.b) != math.Float64bits(w.b) {
					t.Fatalf("%s trial %d draw %d: replay step %d operands (%v, %v), legacy step %d (%v, %v)",
						tc.name, trial, i, g.step, g.a, g.b, w.step, w.a, w.b)
				}
			}
			compared += len(want)
		}
		if divergent == 0 {
			t.Fatalf("%s: no divergent trial; the case does not exercise the replay", tc.name)
		}
	}
	t.Logf("compared %d replayed draws", compared)
}
