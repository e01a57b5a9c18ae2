package backend

import (
	"math"
	"testing"

	"edm/internal/device"
	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// TestDefaultEngineMatchesExact checks the default engine against an
// absolute oracle on the paper's workloads. Every identity gate compares
// the default engine with engineLegacy, and both share the statevec
// kernels; the density-matrix engine behind ExactDist shares none of
// them, so a mistake common to both trajectory engines shows here. The
// cases are the nine Table-1 workloads, members 0 and 3 of a Top-4
// ensemble, on melbourne's window 0 as the campaign derives it
// (calibration seed 2019, runtime calibration drifted by 0.2). Each runs
// 20,000 fixed-seed trials on the statevector, never the tableau, and
// its TV distance to ExactDist must stay inside
// TestLazyEntryMatchesExact's bound: the expected sampling TV over K
// outcomes, 0.5*sqrt(K/N), plus a McDiarmid margin sqrt(ln(1e6)/(2N))
// that a correct engine exceeds with probability below 1e-6.
func TestDefaultEngineMatchesExact(t *testing.T) {
	const trials = 20000
	root := rng.New(2019)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), root.DeriveN("calibration", 0))
	m := New(cal.Drift(0.2, root.DeriveN("drift", 0)))
	comp := mapper.NewCompiler(cal)
	for _, w := range workloads.All() {
		execs, err := comp.TopK(w.Circuit, 4)
		if err != nil {
			t.Fatalf("%s: TopK: %v", w.Name, err)
		}
		if len(execs) < 4 {
			t.Fatalf("%s: TopK returned %d members, want 4", w.Name, len(execs))
		}
		for _, member := range []int{0, 3} {
			exe := execs[member].Circuit
			prog, err := m.getProgram(exe)
			if err != nil {
				t.Fatalf("%s member %d: compile: %v", w.Name, member, err)
			}
			if sp, _ := m.selectStab(prog); sp != nil {
				t.Fatalf("%s member %d: routed to the stabilizer engine; the oracle must check the statevector", w.Name, member)
			}
			exact, err := m.ExactDist(exe)
			if err != nil {
				t.Fatalf("%s member %d: ExactDist: %v", w.Name, member, err)
			}
			got, err := m.RunDist(exe, trials, rng.New(23).DeriveN("member", member))
			if err != nil {
				t.Fatalf("%s member %d: run: %v", w.Name, member, err)
			}
			k := float64(int(1) << uint(prog.numClbits))
			bound := 0.5*math.Sqrt(k/trials) + math.Sqrt(math.Log(1e6)/(2*trials))
			tv := got.TV(exact)
			if tv > bound {
				t.Errorf("%s member %d: default engine vs ExactDist TV = %.4f > %.4f", w.Name, member, tv, bound)
			}
			t.Logf("%s member %d: TV %.4f (bound %.4f)", w.Name, member, tv, bound)
		}
	}
}
