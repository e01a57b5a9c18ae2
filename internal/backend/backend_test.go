package backend

import (
	"math"
	"runtime"
	"testing"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/rng"
	"edm/internal/statevec"
)

func idealMachine(topo *device.Topology) *Machine {
	return New(device.Generate(topo, device.IdealProfile(), rng.New(1)))
}

func noisyMachine(seed uint64) *Machine {
	return New(device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(seed)))
}

func bell(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := circuit.New(2, 2)
	c.H(0).CX(0, 1).MeasureAll()
	return c
}

func TestIdealMachineMatchesIdealSimulator(t *testing.T) {
	m := idealMachine(device.Linear(3))
	c := circuit.New(3, 3)
	c.H(0).CX(0, 1).CX(1, 2).MeasureAll()
	counts, err := m.Run(c, 40000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	got := counts.Dist()
	want, err := statevec.IdealDist(c)
	if err != nil {
		t.Fatal(err)
	}
	if tv := got.TV(want); tv > 0.01 {
		t.Fatalf("ideal machine deviates from ideal simulator: TV = %v", tv)
	}
}

func TestRunDeterministic(t *testing.T) {
	m := noisyMachine(7)
	c := bell(t)
	a, err := m.Run(c, 500, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(c, 500, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Dist().Equal(b.Dist(), 0) {
		t.Fatal("same seed produced different histograms")
	}
	c2, err := m.Run(c, 500, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if a.Dist().Equal(c2.Dist(), 0) {
		t.Fatal("different seeds produced identical histograms (suspicious)")
	}
}

func TestNoisyMachineDegradesOutput(t *testing.T) {
	m := noisyMachine(3)
	c := circuit.New(14, 6)
	// GHZ-like chain on qubits 0..5 then measure: deep enough to suffer.
	c.H(0)
	for q := 0; q+1 < 6; q++ {
		c.CX(q, q+1)
	}
	for q := 0; q < 6; q++ {
		c.Measure(q, q)
	}
	d, err := m.RunDist(c, 4000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	p00 := d.P(bitstr.Zeros(6))
	p11 := d.P(bitstr.Ones(6))
	if p00+p11 > 0.95 {
		t.Fatalf("noise missing: P(00..)+P(11..) = %v", p00+p11)
	}
	if p00+p11 < 0.05 {
		t.Fatalf("noise implausibly strong: %v", p00+p11)
	}
	// The readout bias (1 read as 0) should depress the all-ones branch.
	if p11 >= p00 {
		t.Logf("note: p11=%v >= p00=%v (bias usually depresses p11)", p11, p00)
	}
}

func TestCouplingViolationRejected(t *testing.T) {
	m := idealMachine(device.Linear(3))
	c := circuit.New(3, 3)
	c.CX(0, 2).MeasureAll()
	if _, err := m.Run(c, 10, rng.New(1)); err == nil {
		t.Fatal("coupling violation accepted")
	}
}

func TestOversizedCircuitRejected(t *testing.T) {
	m := idealMachine(device.Linear(2))
	if _, err := m.Run(circuit.New(5, 5).MeasureAll(), 1, rng.New(1)); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

func TestGateAfterMeasureRejected(t *testing.T) {
	m := idealMachine(device.Linear(2))
	c := circuit.New(2, 2)
	c.Measure(0, 0).X(0)
	if _, err := m.Run(c, 1, rng.New(1)); err == nil {
		t.Fatal("gate after measurement accepted")
	}
	c2 := circuit.New(2, 2)
	c2.Measure(0, 0).Measure(0, 1)
	if _, err := m.Run(c2, 1, rng.New(1)); err == nil {
		t.Fatal("double measurement accepted")
	}
}

func TestNegativeTrialsRejected(t *testing.T) {
	m := idealMachine(device.Linear(2))
	if _, err := m.Run(bell(t), -1, rng.New(1)); err == nil {
		t.Fatal("negative trials accepted")
	}
}

func TestInvalidCalibrationPanics(t *testing.T) {
	cal := device.Generate(device.Linear(2), device.IdealProfile(), rng.New(1))
	cal.SQErr = cal.SQErr[:1]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(cal)
}

// TestTrajectoriesMatchExact is the central validation of the noisy
// backend: the Monte-Carlo trajectory path and the exact density-matrix
// path must agree on the full output distribution.
func TestTrajectoriesMatchExact(t *testing.T) {
	m := noisyMachine(11)
	// Use melbourne qubits 0-1-2 (a path) with a phase-sensitive circuit.
	c := circuit.New(14, 2)
	c.H(0).CX(0, 1).T(1).H(1).CX(1, 2).Measure(0, 0).Measure(1, 1)
	exact, err := m.ExactDist(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.RunDist(c, 60000, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if tv := got.TV(exact); tv > 0.015 {
		t.Fatalf("trajectory vs exact TV = %v\ntraj:  %v\nexact: %v", tv, got, exact)
	}
}

func TestExactDistNormalized(t *testing.T) {
	m := noisyMachine(13)
	c := circuit.New(14, 3)
	c.H(0).CX(0, 1).CX(1, 2).Measure(0, 0).Measure(1, 1).Measure(2, 2)
	d, err := m.ExactDist(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Sum()-1) > 1e-9 {
		t.Fatalf("exact dist mass = %v", d.Sum())
	}
}

// TestSystematicErrorsAreRepeatable: two independent runs of the same
// executable on the same machine produce *similar* distributions (low KL),
// because the coherent part of the noise is identical — the correlated-
// error phenomenon of paper Figure 4(a).
func TestSystematicErrorsAreRepeatable(t *testing.T) {
	m := noisyMachine(17)
	c := circuit.New(14, 3)
	c.H(0).CX(0, 1).CX(1, 2).T(2).H(2).Measure(0, 0).Measure(1, 1).Measure(2, 2)
	d1, err := m.RunDist(c, 8000, rng.New(100))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m.RunDist(c, 8000, rng.New(200))
	if err != nil {
		t.Fatal(err)
	}
	if kl := d1.SymKL(d2); kl > 0.05 {
		t.Fatalf("same-mapping runs diverge: SymKL = %v", kl)
	}
}

// TestDifferentMappingsDiverge: the same logical circuit placed on
// different physical qubits produces *different* output distributions —
// the diversity EDM exploits (paper Figure 4(b)).
func TestDifferentMappingsDiverge(t *testing.T) {
	m := noisyMachine(19)
	logical := circuit.New(3, 3)
	logical.H(0).CX(0, 1).CX(1, 2).T(2).H(2).MeasureAll()

	// Two placements on disjoint melbourne paths: (0,1,2) and (7,8,9).
	e1 := logical.Remap([]int{0, 1, 2}, 14)
	e2 := logical.Remap([]int{7, 8, 9}, 14)
	d1, err := m.RunDist(e1, 8000, rng.New(300))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m.RunDist(e2, 8000, rng.New(400))
	if err != nil {
		t.Fatal(err)
	}
	klSame, err := sameMappingKL(m, e1)
	if err != nil {
		t.Fatal(err)
	}
	klDiff := d1.SymKL(d2)
	if klDiff < 2*klSame {
		t.Fatalf("mapping diversity too weak: diff-KL %v vs same-KL %v", klDiff, klSame)
	}
}

func sameMappingKL(m *Machine, exe *circuit.Circuit) (float64, error) {
	a, err := m.RunDist(exe, 8000, rng.New(500))
	if err != nil {
		return 0, err
	}
	b, err := m.RunDist(exe, 8000, rng.New(600))
	if err != nil {
		return 0, err
	}
	return a.SymKL(b), nil
}

// TestReadoutBiasVisible: prepare |1> and read; the biased flip rate
// P(read 0|1) must exceed P(read 1|0) measured from preparing |0>.
func TestReadoutBiasVisible(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(23))
	m := New(cal)
	prep1 := circuit.New(14, 1)
	prep1.X(0).Measure(0, 0)
	prep0 := circuit.New(14, 1)
	prep0.ID(0).Measure(0, 0)
	d1, err := m.RunDist(prep1, 30000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	d0, err := m.RunDist(prep0, 30000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	flip10 := d1.P(bitstr.MustParse("0")) // read 0 although prepared 1
	flip01 := d0.P(bitstr.MustParse("1"))
	// Compare against calibration ground truth within sampling slack; the
	// X gate itself adds a little extra error to flip10.
	if flip10 < cal.Meas10[0]*0.7 {
		t.Fatalf("P(0|1) = %v far below calibration %v", flip10, cal.Meas10[0])
	}
	if flip01 > cal.Meas01[0]*1.5+0.02 {
		t.Fatalf("P(1|0) = %v far above calibration %v", flip01, cal.Meas01[0])
	}
	if flip10 <= flip01 {
		t.Fatalf("readout bias missing: P(0|1)=%v <= P(1|0)=%v (cal: %v vs %v)",
			flip10, flip01, cal.Meas10[0], cal.Meas01[0])
	}
}

// TestCorrelatedReadout: with a strong readout correlation, a qubit's
// error rate rises when its measured neighbour is 1.
func TestCorrelatedReadout(t *testing.T) {
	cal := device.Generate(device.Linear(2), device.IdealProfile(), rng.New(1))
	cal.Meas01 = []float64{0.1, 0}
	cal.ReadoutCorr = 1.0 // doubles the flip probability
	m := New(cal)

	neighbour0 := circuit.New(2, 2)
	neighbour0.MeasureAll() // both |0>
	neighbour1 := circuit.New(2, 2)
	neighbour1.X(1).MeasureAll() // neighbour reads 1

	d0, err := m.RunDist(neighbour0, 40000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	d1, err := m.RunDist(neighbour1, 40000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	rate0 := d0.P(bitstr.MustParse("10")) // q0 misread as 1, q1 = 0
	rate1 := d1.P(bitstr.MustParse("11")) // q0 misread as 1, q1 = 1
	if math.Abs(rate0-0.1) > 0.01 {
		t.Fatalf("baseline flip rate = %v, want ~0.1", rate0)
	}
	if math.Abs(rate1-0.2) > 0.01 {
		t.Fatalf("correlated flip rate = %v, want ~0.2", rate1)
	}
}

// TestSpectatorCrosstalkFolded: a CX whose neighbourhood contains an
// untouched spectator must still run (the ZZ kick folds into a local
// phase) and produce a normalized distribution.
func TestSpectatorCrosstalkFolded(t *testing.T) {
	m := noisyMachine(29)
	c := circuit.New(14, 2)
	// Qubits 1,2 are coupled; both have several other neighbours (0, 13,
	// 3, 12) that stay untouched.
	c.H(1).CX(1, 2).Measure(1, 0).Measure(2, 1)
	d, err := m.RunDist(c, 2000, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Sum()-1) > 1e-9 {
		t.Fatalf("mass = %v", d.Sum())
	}
}

// TestCrosstalkAffectsActiveNeighbours: with only crosstalk enabled, a
// Ramsey-style circuit on a qubit adjacent to a firing CX shows phase
// corruption relative to a far-away CX.
func TestCrosstalkAffectsActiveNeighbours(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.IdealProfile(), rng.New(1))
	for e := range cal.CrossZZ {
		cal.CrossZZ[e] = 0.6
	}
	m := New(cal)
	// Ramsey on qubit 2 while CX fires on its neighbours (1,13)... use edge (1,13).
	near := circuit.New(14, 1)
	near.H(2).X(1).CX(1, 13).CX(1, 13).H(2).Measure(2, 0)
	far := circuit.New(14, 1)
	far.H(2).X(7).CX(7, 8).CX(7, 8).H(2).Measure(2, 0)
	dNear, err := m.RunDist(near, 8000, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	dFar, err := m.RunDist(far, 8000, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	pNear := dNear.P(bitstr.MustParse("1"))
	pFar := dFar.P(bitstr.MustParse("1"))
	if pFar > 0.02 {
		t.Fatalf("far CX corrupted Ramsey qubit: P(1) = %v", pFar)
	}
	if pNear < 0.05 {
		t.Fatalf("adjacent CX crosstalk invisible: P(1) = %v", pNear)
	}
}

// TestBarrierIdleDecoherence: idling behind a barrier must cost T1 decay.
func TestBarrierIdleDecoherence(t *testing.T) {
	cal := device.Generate(device.Linear(2), device.IdealProfile(), rng.New(1))
	cal.T1us = []float64{1, 1} // very short T1: 1000ns
	cal.T2us = []float64{2, 2}
	m := New(cal)
	// Qubit 0 in |1>; qubit 1 executes 30 gates (3000 ns) while a barrier
	// pins qubit 0 behind them; ~95% decay expected.
	c := circuit.New(2, 1)
	c.X(0)
	for i := 0; i < 30; i++ {
		c.X(1)
	}
	c.Barrier()
	c.Measure(0, 0)
	d, err := m.RunDist(c, 20000, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	p1 := d.P(bitstr.MustParse("1"))
	if p1 > 0.3 {
		t.Fatalf("idle decoherence missing: P(1) = %v", p1)
	}
}

func TestMergedCountsAcrossMappings(t *testing.T) {
	// Sanity for the EDM workflow: counts from two mappings merge into a
	// single histogram over the same classical register.
	m := noisyMachine(31)
	logical := circuit.New(2, 2)
	logical.H(0).CX(0, 1).MeasureAll()
	e1 := logical.Remap([]int{0, 1}, 14)
	e2 := logical.Remap([]int{8, 9}, 14)
	c1, err := m.Run(e1, 1000, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Run(e2, 1000, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	c1.Merge(c2)
	if c1.Total() != 2000 {
		t.Fatalf("merged total = %d", c1.Total())
	}
	_ = dist.Merge([]*dist.Dist{c1.Dist()})
}

// TestParallelMatchesSerial: every trial loop — the tape tree with
// batched replay (the default engine), the legacy loop and the tableau —
// returns byte-identical Counts at every width, because every trial
// derives its RNG stream from its index alone and per-worker histograms
// merge commutatively. 257 trials cross phase A's 256-trial chunk
// boundary, and at 3001 trials the replay units outnumber the workers.
// Widths above the CPU count still run that many workers.
func TestParallelMatchesSerial(t *testing.T) {
	c := circuit.New(14, 3)
	c.H(0).CX(0, 1).CX(1, 2).T(2).H(2).Measure(0, 0).Measure(1, 1).Measure(2, 2)
	legacy := noisyMachine(41)
	legacy.SetTrajectoryEngine(EngineLegacy)
	loops := []struct {
		name string
		m    *Machine
		exe  *circuit.Circuit
		// ran checks, from the engine counters around one run of the
		// given trials on the given width, that the intended loop ran.
		ran func(d EngineStats, trials, procs int) bool
	}{
		{"tape tree", noisyMachine(41), c, func(d EngineStats, trials, procs int) bool {
			ok := d.FullDominantTrials+d.DivergentTrials == int64(trials) && d.BatchTrials == d.DivergentTrials
			if trials > 3000 {
				ok = ok && d.BatchUnits > int64(procs)
			}
			return ok
		}},
		{"legacy", legacy, c, func(d EngineStats, _, _ int) bool {
			return d.FullDominantTrials+d.DivergentTrials+d.StabTrials == 0
		}},
		{"tableau", cliffordMachine(8, 3), randomCliffordChain(8, rng.New(5)), func(d EngineStats, trials, _ int) bool {
			return d.StabTrials == int64(trials)
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, l := range loops {
		for _, trials := range []int{257, 3001} {
			var want *dist.Counts
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				before := EngineStatsSnapshot()
				got, err := l.m.Run(l.exe, trials, rng.New(77))
				if err != nil {
					t.Fatalf("%s: %v", l.name, err)
				}
				if d := statsDelta(before, EngineStatsSnapshot()); !l.ran(d, trials, procs) {
					t.Errorf("%s, %d trials, GOMAXPROCS=%d: counters %+v do not show the loop running", l.name, trials, procs, d)
				}
				if procs == 1 {
					want = got
				} else if !countsEqual(want, got) {
					t.Errorf("%s, %d trials: GOMAXPROCS=%d changed the histogram", l.name, trials, procs)
				}
			}
		}
	}
}

// statsDelta returns the per-trial engine counters accumulated between
// two snapshots.
func statsDelta(a, b EngineStats) EngineStats {
	return EngineStats{
		FullDominantTrials: b.FullDominantTrials - a.FullDominantTrials,
		DivergentTrials:    b.DivergentTrials - a.DivergentTrials,
		StabTrials:         b.StabTrials - a.StabTrials,
		BatchUnits:         b.BatchUnits - a.BatchUnits,
		BatchTrials:        b.BatchTrials - a.BatchTrials,
	}
}
