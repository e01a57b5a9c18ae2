package device

import (
	"math"
	"testing"

	"edm/internal/circuit"
	"edm/internal/rng"
)

func TestMelbourneTopology(t *testing.T) {
	m := Melbourne()
	if m.Qubits != 14 {
		t.Fatalf("qubits = %d", m.Qubits)
	}
	if got := len(m.Edges()); got != 18 {
		t.Fatalf("edges = %d, want 18", got)
	}
	if !m.Graph().IsConnected() {
		t.Fatal("melbourne not connected")
	}
	// Spot-check the published coupling map.
	for _, e := range [][2]int{{0, 1}, {1, 13}, {4, 10}, {6, 8}, {12, 13}} {
		if !m.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if m.HasEdge(0, 13) || m.HasEdge(6, 7) {
		t.Error("phantom edge present")
	}
}

func TestFactories(t *testing.T) {
	if l := Linear(5); l.Qubits != 5 || len(l.Edges()) != 4 {
		t.Fatal("Linear wrong")
	}
	if r := Ring(6); len(r.Edges()) != 6 || !r.HasEdge(0, 5) {
		t.Fatal("Ring wrong")
	}
	g := Grid(2, 3)
	if g.Qubits != 6 || len(g.Edges()) != 7 {
		t.Fatalf("Grid edges = %d", len(g.Edges()))
	}
	mustPanic(t, func() { Ring(2) })
	mustPanic(t, func() { Grid(0, 3) })
}

func TestDistance(t *testing.T) {
	l := Linear(5)
	if d := l.Distance(0, 4); d != 4 {
		t.Fatalf("Distance = %d", d)
	}
	if d := l.Distance(2, 2); d != 0 {
		t.Fatalf("self Distance = %d", d)
	}
}

func TestNewEdgeNormalizes(t *testing.T) {
	if e := NewEdge(5, 2); e.A != 2 || e.B != 5 {
		t.Fatalf("edge = %v", e)
	}
	mustPanic(t, func() { NewEdge(3, 3) })
}

func TestGenerateValid(t *testing.T) {
	topo := Melbourne()
	cal := Generate(topo, MelbourneProfile(), rng.New(42))
	if err := cal.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Determinism.
	cal2 := Generate(topo, MelbourneProfile(), rng.New(42))
	for q := 0; q < topo.Qubits; q++ {
		if cal.SQErr[q] != cal2.SQErr[q] || cal.Meas10[q] != cal2.Meas10[q] {
			t.Fatal("Generate not deterministic")
		}
	}
	// Different seeds differ.
	cal3 := Generate(topo, MelbourneProfile(), rng.New(43))
	same := 0
	for q := 0; q < topo.Qubits; q++ {
		if cal.SQErr[q] == cal3.SQErr[q] {
			same++
		}
	}
	if same == topo.Qubits {
		t.Fatal("different seeds produced identical calibrations")
	}
}

func TestGenerateMagnitudes(t *testing.T) {
	// Averaged over many draws, rates should sit near the profile means
	// reported in the paper for IBMQ-14.
	topo := Melbourne()
	p := MelbourneProfile()
	var sq, cx, meas float64
	var nq, ne int
	for seed := 0; seed < 30; seed++ {
		cal := Generate(topo, p, rng.New(uint64(seed)))
		for q := 0; q < topo.Qubits; q++ {
			sq += cal.SQErr[q]
			meas += cal.MeasErrAvg(q)
			nq++
		}
		for _, e := range topo.Edges() {
			cx += cal.CXErr[e]
			ne++
		}
	}
	sqAvg, cxAvg, measAvg := sq/float64(nq), cx/float64(ne), meas/float64(nq)
	if sqAvg < 0.0005 || sqAvg > 0.003 {
		t.Errorf("1q error average %v not near 0.1%%", sqAvg)
	}
	if cxAvg < 0.02 || cxAvg > 0.09 {
		t.Errorf("CX error average %v not near 4%%", cxAvg)
	}
	if measAvg < 0.04 || measAvg > 0.16 {
		t.Errorf("readout error average %v not near 8%%", measAvg)
	}
}

func TestGenerateVariation(t *testing.T) {
	// The paper reports up to 20x variation in link reliability; our draws
	// must show large (>=4x) spread within a single calibration.
	cal := Generate(Melbourne(), MelbourneProfile(), rng.New(7))
	min, max := math.Inf(1), 0.0
	for _, v := range cal.CXErr {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max/min < 4 {
		t.Errorf("CX error spread %vx too small", max/min)
	}
}

func TestGenerateReadoutBias(t *testing.T) {
	// Meas10 (reading 1 as 0) should on average exceed Meas01, the
	// state-dependent bias from the companion paper.
	var m01, m10 float64
	for seed := 0; seed < 20; seed++ {
		cal := Generate(Melbourne(), MelbourneProfile(), rng.New(uint64(seed)))
		for q := 0; q < 14; q++ {
			m01 += cal.Meas01[q]
			m10 += cal.Meas10[q]
		}
	}
	if m10 <= m01 {
		t.Errorf("readout bias missing: m10=%v m01=%v", m10, m01)
	}
}

func TestGenerateT2Bound(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		cal := Generate(Melbourne(), MelbourneProfile(), rng.New(uint64(seed)))
		for q := 0; q < 14; q++ {
			if cal.T2us[q] > 2*cal.T1us[q]+1e-9 {
				t.Fatalf("T2 > 2*T1 on qubit %d", q)
			}
		}
	}
}

func TestIdealProfileIsQuiet(t *testing.T) {
	cal := Generate(Melbourne(), IdealProfile(), rng.New(1))
	if err := cal.Validate(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 14; q++ {
		if cal.SQErr[q] != 0 || cal.Meas01[q] != 0 || cal.CohY[q] != 0 {
			t.Fatal("ideal profile has noise")
		}
	}
	for _, e := range cal.Topo.Edges() {
		if cal.CXErr[e] != 0 || cal.CXCohZZ[e] != 0 {
			t.Fatal("ideal profile has link noise")
		}
	}
}

func TestDrift(t *testing.T) {
	cal := Generate(Melbourne(), MelbourneProfile(), rng.New(5))
	d := cal.Drift(0.3, rng.New(6))
	if err := d.Validate(); err != nil {
		t.Fatalf("drifted calibration invalid: %v", err)
	}
	// Drift changes values but keeps them in the same ballpark.
	changed := 0
	for q := 0; q < 14; q++ {
		if d.SQErr[q] != cal.SQErr[q] {
			changed++
		}
		ratio := d.Meas10[q] / cal.Meas10[q]
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("drift ratio %v too extreme", ratio)
		}
	}
	if changed == 0 {
		t.Fatal("Drift changed nothing")
	}
	// Original untouched.
	cal2 := Generate(Melbourne(), MelbourneProfile(), rng.New(5))
	for q := 0; q < 14; q++ {
		if cal.SQErr[q] != cal2.SQErr[q] {
			t.Fatal("Drift mutated the source calibration")
		}
	}
}

// driftMoved counts the qubits and links whose calibration fields
// differ between a and b in any bit.
func driftMoved(a, b *Calibration) (qubits, edges int) {
	for q := range a.SQErr {
		for _, f := range [...][2]float64{
			{a.SQErr[q], b.SQErr[q]}, {a.Meas01[q], b.Meas01[q]},
			{a.Meas10[q], b.Meas10[q]}, {a.T1us[q], b.T1us[q]},
			{a.T2us[q], b.T2us[q]}, {a.CohY[q], b.CohY[q]},
			{a.CohZ[q], b.CohZ[q]},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				qubits++
				break
			}
		}
	}
	for _, e := range a.Topo.Edges() {
		if math.Float64bits(a.CXErr[e]) != math.Float64bits(b.CXErr[e]) ||
			math.Float64bits(a.CXCohZZ[e]) != math.Float64bits(b.CXCohZZ[e]) ||
			math.Float64bits(a.CrossZZ[e]) != math.Float64bits(b.CrossZZ[e]) {
			edges++
		}
	}
	return qubits, edges
}

func TestDriftLocalSparseAndDeterministic(t *testing.T) {
	cal := Generate(Melbourne(), MelbourneProfile(), rng.New(7))
	a := cal.DriftLocal(2, 3, 0.4, 0, rng.New(11))
	b := cal.DriftLocal(2, 3, 0.4, 0, rng.New(11))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("DriftLocal not deterministic in the seed")
	}
	if c := cal.DriftLocal(2, 3, 0.4, 0, rng.New(12)); c.Fingerprint() == a.Fingerprint() {
		t.Fatalf("DriftLocal ignores the seed")
	}
	// With jitter 0 exactly the hit elements move; everything else stays
	// bit-identical.
	if q, e := driftMoved(cal, a); q != 2 || e != 3 {
		t.Fatalf("moved %d qubits and %d links, want 2 and 3", q, e)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("drifted calibration invalid: %v", err)
	}
}

// TestDriftLocalJitterMovesEveryElement: at the drifting campaign's
// scale (2 qubits and 2 links hit by 4%, jitter 2e-4) every qubit and
// every link moves, so no pool candidate's footprint is left
// bit-identical between windows and every one must be re-scored.
func TestDriftLocalJitterMovesEveryElement(t *testing.T) {
	cal := Generate(Melbourne(), MelbourneProfile(), rng.New(7))
	a := cal.DriftLocal(2, 2, 0.04, 2e-4, rng.New(3))
	if q, e := driftMoved(cal, a); q != cal.Topo.Qubits || e != len(cal.Topo.Edges()) {
		t.Fatalf("moved %d/%d qubits and %d/%d links; jitter should move them all",
			q, cal.Topo.Qubits, e, len(cal.Topo.Edges()))
	}
}

func TestCloneIndependent(t *testing.T) {
	cal := Generate(Melbourne(), MelbourneProfile(), rng.New(9))
	c := cal.Clone()
	c.SQErr[0] = 0.9
	c.CXErr[NewEdge(0, 1)] = 0.9
	if cal.SQErr[0] == 0.9 || cal.CXErr[NewEdge(0, 1)] == 0.9 {
		t.Fatal("Clone shares storage")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := Generate(Melbourne(), MelbourneProfile(), rng.New(11))
	cases := []func(c *Calibration){
		func(c *Calibration) { c.SQErr = c.SQErr[:3] },
		func(c *Calibration) { c.Meas01[2] = 1.5 },
		func(c *Calibration) { c.T1us[0] = 0 },
		func(c *Calibration) { delete(c.CXErr, NewEdge(0, 1)) },
		func(c *Calibration) { c.CXErr[NewEdge(0, 1)] = -0.1 },
		func(c *Calibration) { delete(c.CrossZZ, NewEdge(0, 1)) },
		func(c *Calibration) { c.Gate1QTimeNs = 0 },
		func(c *Calibration) { c.SQErr[1] = math.NaN() },
		func(c *Calibration) { c.T2us[4] = math.NaN() },
		func(c *Calibration) { c.CohY[0] = math.Inf(1) },
		func(c *Calibration) { c.CohZ[3] = math.NaN() },
		func(c *Calibration) { c.CXErr[NewEdge(0, 1)] = math.NaN() },
		func(c *Calibration) { c.CrossZZ[NewEdge(0, 1)] = math.NaN() },
		func(c *Calibration) { c.CXCohZZ[NewEdge(0, 1)] = math.Inf(-1) },
		func(c *Calibration) { c.ReadoutCorr = math.NaN() },
		func(c *Calibration) { c.MeasTimeNs = math.NaN() },
		func(c *Calibration) { c.Gate2QTimeNs = math.Inf(1) },
	}
	for i, corrupt := range cases {
		c := good.Clone()
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: corruption not caught", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good calibration invalid: %v", err)
	}
	// Infinite coherence times stay legal: a profile without damping.
	inf := good.Clone()
	inf.T1us[0], inf.T2us[0] = math.Inf(1), math.Inf(1)
	if err := inf.Validate(); err != nil {
		t.Fatalf("infinite coherence times rejected: %v", err)
	}
}

// TestDriftAtMaxDriftStaysValid drives Drift at the MaxDrift ceiling
// over many seeds, on a profile with rates at exactly zero and infinite
// coherence times: every drifted calibration must validate, because no
// exp(f*N) factor overflows or underflows at that scale.
func TestDriftAtMaxDriftStaysValid(t *testing.T) {
	base := Generate(Melbourne(), MelbourneProfile(), rng.New(3))
	base.SQErr[0], base.Meas01[1] = 0, 0
	base.T1us[2], base.T2us[2] = math.Inf(1), math.Inf(1)
	for seed := uint64(0); seed < 200; seed++ {
		d := base.Drift(MaxDrift, rng.New(seed))
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: Drift(MaxDrift) is invalid: %v", seed, err)
		}
		if d.SQErr[0] != 0 || d.Meas01[1] != 0 || !math.IsInf(d.T1us[2], 1) {
			t.Fatalf("seed %d: Drift(MaxDrift) moved a zero rate or an infinite coherence time", seed)
		}
	}
}

func TestESP(t *testing.T) {
	topo := Linear(3)
	cal := Generate(topo, IdealProfile(), rng.New(1))
	cal.SQErr = []float64{0.1, 0, 0}
	cal.Meas01 = []float64{0.2, 0.2, 0}
	cal.Meas10 = []float64{0.2, 0.2, 0}
	cal.CXErr[NewEdge(0, 1)] = 0.5

	c := circuit.New(3, 3)
	c.H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	got := MustESP(c, cal)
	want := (1 - 0.1) * (1 - 0.5) * (1 - 0.2) * (1 - 0.2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ESP = %v, want %v", got, want)
	}
}

func TestESPSwapCountsAsThreeCX(t *testing.T) {
	topo := Linear(2)
	cal := Generate(topo, IdealProfile(), rng.New(1))
	cal.CXErr[NewEdge(0, 1)] = 0.1
	c := circuit.New(2, 0)
	c.SWAP(0, 1)
	got := MustESP(c, cal)
	want := math.Pow(0.9, 3)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("SWAP ESP = %v, want %v", got, want)
	}
}

func TestESPRejectsCouplingViolation(t *testing.T) {
	topo := Linear(3)
	cal := Generate(topo, IdealProfile(), rng.New(1))
	c := circuit.New(3, 0)
	c.CX(0, 2) // not coupled on a line
	if _, err := ESP(c, cal); err == nil {
		t.Fatal("coupling violation accepted")
	}
	mustPanic(t, func() { MustESP(c, cal) })
}

func TestESPRejectsOversizedCircuit(t *testing.T) {
	cal := Generate(Linear(2), IdealProfile(), rng.New(1))
	if _, err := ESP(circuit.New(5, 0), cal); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

func TestESPIgnoresBarrierAndID(t *testing.T) {
	cal := Generate(Linear(2), MelbourneProfile(), rng.New(2))
	c := circuit.New(2, 0)
	c.Barrier().ID(0).ID(1)
	if got := MustESP(c, cal); got != 1 {
		t.Fatalf("ESP = %v, want 1", got)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestTokyoTopology(t *testing.T) {
	tk := Tokyo()
	if tk.Qubits != 20 {
		t.Fatalf("qubits = %d", tk.Qubits)
	}
	if got := len(tk.Edges()); got != 43 {
		t.Fatalf("edges = %d, want 43", got)
	}
	if !tk.Graph().IsConnected() {
		t.Fatal("tokyo not connected")
	}
	for _, e := range [][2]int{{0, 1}, {4, 9}, {1, 7}, {14, 18}, {10, 15}} {
		if !tk.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if tk.HasEdge(0, 6) || tk.HasEdge(9, 13) {
		t.Error("phantom diagonal present")
	}
	// A richer machine: calibrations generate and EDM pools exist.
	cal := Generate(tk, MelbourneProfile(), rng.New(1))
	if err := cal.Validate(); err != nil {
		t.Fatal(err)
	}
}
