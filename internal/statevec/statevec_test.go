package statevec

import (
	"math"
	"testing"
	"testing/quick"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestInitialState(t *testing.T) {
	s := NewState(3)
	if s.Amplitude(0) != 1 {
		t.Fatal("initial amplitude of |000> != 1")
	}
	if !approx(s.Norm(), 1, 1e-12) {
		t.Fatalf("Norm = %v", s.Norm())
	}
	b := bitstr.MustParse("101")
	bs := NewBasisState(b)
	if bs.Amplitude(b.Uint64()) != 1 || bs.Amplitude(0) != 0 {
		t.Fatal("NewBasisState wrong")
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := NewState(1)
	s.Apply1Q(circuit.Matrix1Q(circuit.H, nil), 0)
	if !approx(s.ProbabilityOne(0), 0.5, 1e-12) {
		t.Fatalf("P(1) after H = %v", s.ProbabilityOne(0))
	}
	// H twice is identity.
	s.Apply1Q(circuit.Matrix1Q(circuit.H, nil), 0)
	if !approx(real(s.Amplitude(0)), 1, 1e-12) {
		t.Fatalf("HH|0> != |0>: %v", s.Amplitude(0))
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.Apply1Q(circuit.Matrix1Q(circuit.H, nil), 0)
	s.Apply2Q(circuit.Matrix2Q(circuit.CX), 0, 1)
	p := s.Probabilities()
	if !approx(p[0], 0.5, 1e-12) || !approx(p[3], 0.5, 1e-12) {
		t.Fatalf("Bell probabilities = %v", p)
	}
	if p[1] > 1e-12 || p[2] > 1e-12 {
		t.Fatalf("Bell cross terms = %v", p)
	}
}

func TestCXControlConvention(t *testing.T) {
	// CX with control=qubit0: |10> (q0=1 means index 1) -> q1 flips.
	s := NewBasisState(bitstr.MustParse("10")) // q0=1, q1=0 -> index 1
	s.Apply2Q(circuit.Matrix2Q(circuit.CX), 0, 1)
	if !approx(real(s.Amplitude(3)), 1, 1e-12) {
		t.Fatalf("CX did not flip target: %v", s.Probabilities())
	}
	// Control 0: nothing happens.
	s2 := NewBasisState(bitstr.MustParse("01")) // q0=0, q1=1 -> index 2
	s2.Apply2Q(circuit.Matrix2Q(circuit.CX), 0, 1)
	if !approx(real(s2.Amplitude(2)), 1, 1e-12) {
		t.Fatalf("CX acted with control 0: %v", s2.Probabilities())
	}
}

func TestSwapGateEqualsThreeCX(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 20; trial++ {
		a := randomState(3, r)
		b := a.Clone()
		a.Apply2Q(circuit.Matrix2Q(circuit.SWAP), 0, 2)
		cx := circuit.Matrix2Q(circuit.CX)
		b.Apply2Q(cx, 0, 2)
		b.Apply2Q(cx, 2, 0)
		b.Apply2Q(cx, 0, 2)
		if f := a.Fidelity(b); !approx(f, 1, 1e-10) {
			t.Fatalf("SWAP != CX^3, fidelity %v", f)
		}
	}
}

func randomState(n int, r *rng.RNG) *State {
	s := NewState(n)
	for q := 0; q < n; q++ {
		s.Apply1Q(circuit.Matrix1Q(circuit.U3, []float64{r.Float64() * 3, r.Float64() * 6, r.Float64() * 6}), q)
	}
	for q := 0; q+1 < n; q++ {
		s.Apply2Q(circuit.Matrix2Q(circuit.CX), q, q+1)
	}
	return s
}

func TestUnitaryPreservesNormProperty(t *testing.T) {
	r := rng.New(17)
	if err := quick.Check(func(seed uint32) bool {
		rr := r.DeriveN("u", int(seed))
		s := randomState(4, rr)
		kinds := []circuit.Kind{circuit.X, circuit.H, circuit.T, circuit.RX, circuit.U3}
		k := kinds[rr.Intn(len(kinds))]
		params := make([]float64, k.NumParams())
		for i := range params {
			params[i] = rr.Float64() * 6
		}
		s.Apply1Q(circuit.Matrix1Q(k, params), rr.Intn(4))
		return approx(s.Norm(), 1, 1e-10)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureStatistics(t *testing.T) {
	r := rng.New(5)
	ones := 0
	const n = 20000
	for i := 0; i < n; i++ {
		s := NewState(1)
		s.Apply1Q(circuit.Matrix1Q(circuit.RY, []float64{2 * math.Asin(math.Sqrt(0.3))}), 0)
		if s.MeasureQubit(0, r.DeriveN("m", i)) == 1 {
			ones++
		}
	}
	rate := float64(ones) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("measurement rate = %v, want ~0.3", rate)
	}
}

func TestMeasureCollapses(t *testing.T) {
	r := rng.New(9)
	s := NewState(2)
	s.Apply1Q(circuit.Matrix1Q(circuit.H, nil), 0)
	s.Apply2Q(circuit.Matrix2Q(circuit.CX), 0, 1)
	m0 := s.MeasureQubit(0, r)
	// After measuring one half of a Bell pair, the other is determined.
	m1 := s.MeasureQubit(1, r)
	if m0 != m1 {
		t.Fatalf("Bell measurement disagreement: %d vs %d", m0, m1)
	}
	if !approx(s.Norm(), 1, 1e-12) {
		t.Fatalf("norm after collapse = %v", s.Norm())
	}
}

func TestSampleOutcomeMatchesProbabilities(t *testing.T) {
	s := NewState(2)
	s.Apply1Q(circuit.Matrix1Q(circuit.H, nil), 0)
	s.Apply2Q(circuit.Matrix2Q(circuit.CX), 0, 1)
	r := rng.New(3)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[s.SampleOutcome(r).String()]++
	}
	if counts["10"] != 0 || counts["01"] != 0 {
		t.Fatalf("impossible outcomes sampled: %v", counts)
	}
	if math.Abs(float64(counts["00"])/n-0.5) > 0.02 {
		t.Fatalf("sample split = %v", counts)
	}
}

func TestApplyKrausIdentityChannel(t *testing.T) {
	// A trivial channel {I} must leave the state alone.
	r := rng.New(1)
	s := randomState(3, r)
	before := s.Clone()
	s.ApplyKraus1Q([]circuit.Matrix2{circuit.Matrix1Q(circuit.I, nil)}, 1, r)
	if f := s.Fidelity(before); !approx(f, 1, 1e-10) {
		t.Fatalf("identity channel changed state: %v", f)
	}
	// A lone non-unitary operator renormalizes with the complex multiply
	// by (1/norm + 0i), zero terms spelled out, bit for bit.
	want := s.Clone()
	want.Apply1QDiag(0.5, 0.25, 2)
	f := 1 / want.Norm()
	for i, ar := range want.re {
		ai := want.im[i]
		want.re[i] = ar*f - ai*0
		want.im[i] = ar*0 + ai*f
	}
	s.ApplyKraus1Q([]circuit.Matrix2{{{0.5, 0}, {0, 0.25}}}, 2, r)
	for i := range want.re {
		if math.Float64bits(s.re[i]) != math.Float64bits(want.re[i]) ||
			math.Float64bits(s.im[i]) != math.Float64bits(want.im[i]) {
			t.Fatalf("renormalized amplitude %d = (%v, %v), want (%v, %v)", i, s.re[i], s.im[i], want.re[i], want.im[i])
		}
	}
}

func TestApplyKrausBitFlipRate(t *testing.T) {
	// Bit-flip channel: K0 = sqrt(1-p) I, K1 = sqrt(p) X.
	p := 0.2
	k0 := scaleM(circuit.Matrix1Q(circuit.I, nil), math.Sqrt(1-p))
	k1 := scaleM(circuit.Matrix1Q(circuit.X, nil), math.Sqrt(p))
	r := rng.New(77)
	flips := 0
	const n = 20000
	for i := 0; i < n; i++ {
		s := NewState(1)
		if s.ApplyKraus1Q([]circuit.Matrix2{k0, k1}, 0, r.DeriveN("t", i)) == 1 {
			flips++
		}
	}
	rate := float64(flips) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("bit-flip branch rate = %v, want ~%v", rate, p)
	}
}

func TestApplyKrausAmplitudeDamping(t *testing.T) {
	// Amplitude damping with gamma: starting from |1>, P(decay to |0>)=gamma.
	gamma := 0.3
	k0 := circuit.Matrix2{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}}
	k1 := circuit.Matrix2{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}}
	r := rng.New(13)
	decays := 0
	const n = 20000
	for i := 0; i < n; i++ {
		s := NewBasisState(bitstr.MustParse("1"))
		s.ApplyKraus1Q([]circuit.Matrix2{k0, k1}, 0, r.DeriveN("t", i))
		if s.ProbabilityOne(0) < 0.5 {
			decays++
		}
	}
	rate := float64(decays) / n
	if math.Abs(rate-gamma) > 0.01 {
		t.Fatalf("damping rate = %v, want ~%v", rate, gamma)
	}
}

func TestKrausPreservesNormProperty(t *testing.T) {
	gamma := 0.25
	k0 := circuit.Matrix2{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}}
	k1 := circuit.Matrix2{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}}
	r := rng.New(21)
	for i := 0; i < 100; i++ {
		s := randomState(3, r.DeriveN("s", i))
		s.ApplyKraus1Q([]circuit.Matrix2{k0, k1}, i%3, r.DeriveN("k", i))
		if !approx(s.Norm(), 1, 1e-10) {
			t.Fatalf("norm after Kraus = %v", s.Norm())
		}
	}
}

func scaleM(m circuit.Matrix2, f float64) circuit.Matrix2 {
	c := complex(f, 0)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			m[i][j] *= c
		}
	}
	return m
}

func TestPanics(t *testing.T) {
	s := NewState(2)
	mustPanic(t, func() { s.Apply1Q(circuit.Matrix1Q(circuit.H, nil), 5) })
	mustPanic(t, func() { s.Apply2Q(circuit.Matrix2Q(circuit.CX), 0, 0) })
	mustPanic(t, func() { NewState(-1) })
	mustPanic(t, func() { NewState(MaxQubits + 1) })
	mustPanic(t, func() { s.ApplyKraus1Q(nil, 0, rng.New(1)) })
	mustPanic(t, func() { s.ApplyOp(circuit.Op{Kind: circuit.Barrier}) })
	mustPanic(t, func() { s.Fidelity(NewState(3)) })
}

func TestIdealDistBell(t *testing.T) {
	c := circuit.New(2, 2)
	c.H(0).CX(0, 1).MeasureAll()
	d, err := IdealDist(c)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d.P(bitstr.MustParse("00")), 0.5, 1e-12) ||
		!approx(d.P(bitstr.MustParse("11")), 0.5, 1e-12) {
		t.Fatalf("Bell dist = %v", d)
	}
}

func TestIdealDistPartialMeasurement(t *testing.T) {
	// Only measure qubit 1 of a Bell pair into bit 0 of a 1-bit register.
	c := circuit.New(2, 1)
	c.H(0).CX(0, 1).Measure(1, 0)
	d, err := IdealDist(c)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d.P(bitstr.MustParse("0")), 0.5, 1e-12) {
		t.Fatalf("partial dist = %v", d)
	}
}

func TestIdealDistUnmeasuredBitsZero(t *testing.T) {
	c := circuit.New(2, 2)
	c.X(0).Measure(0, 1) // bit 0 never written -> stays 0
	d, err := IdealDist(c)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d.P(bitstr.MustParse("01")), 1, 1e-12) {
		t.Fatalf("dist = %v", d)
	}
}

func TestIdealDistRejectsMidCircuitMeasure(t *testing.T) {
	c := circuit.New(1, 1)
	c.Measure(0, 0).X(0)
	if _, err := IdealDist(c); err == nil {
		t.Fatal("gate after measurement accepted")
	}
}

func TestIdealDistRejectsInvalid(t *testing.T) {
	c := circuit.New(1, 1)
	c.Ops = append(c.Ops, circuit.Op{Kind: circuit.CX, Qubits: []int{0}, Cbit: -1})
	if _, err := IdealDist(c); err == nil {
		t.Fatal("invalid circuit accepted")
	}
}

func TestGHZ(t *testing.T) {
	n := 6
	c := circuit.New(n, n)
	c.H(0)
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	c.MeasureAll()
	d, err := IdealDist(c)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d.P(bitstr.Zeros(n)), 0.5, 1e-12) || !approx(d.P(bitstr.Ones(n)), 0.5, 1e-12) {
		t.Fatalf("GHZ dist = %v", d)
	}
	if d.Support() != 2 {
		t.Fatalf("GHZ support = %d", d.Support())
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
