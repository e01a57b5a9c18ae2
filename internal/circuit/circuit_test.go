package circuit

import (
	"math"
	"strings"
	"testing"
)

func TestBuilderAndValidate(t *testing.T) {
	c := New(3, 3)
	c.H(0).CX(0, 1).RZ(2, 0.5).SWAP(1, 2).Measure(0, 0).Barrier().MeasureAll()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(c.Ops) != 9 {
		t.Fatalf("ops = %d", len(c.Ops))
	}
}

func TestBuilderPanics(t *testing.T) {
	c := New(2, 2)
	mustPanic(t, func() { c.H(2) })
	mustPanic(t, func() { c.CX(0, 0) })
	mustPanic(t, func() { c.CX(0, 5) })
	mustPanic(t, func() { c.Measure(0, 7) })
	mustPanic(t, func() { New(1, 0).MeasureAll() })
	mustPanic(t, func() { New(-1, 0) })
}

func TestStatsTable1Style(t *testing.T) {
	// A circuit with 3 one-qubit gates, 2 CX, 1 SWAP (=3 CX), 2 measures.
	c := New(3, 3)
	c.H(0).X(1).RZ(2, 1.0).CX(0, 1).CZ(1, 2).SWAP(0, 2).Measure(0, 0).Measure(1, 1)
	s := c.Stats()
	if s.SG != 3 || s.CX != 5 || s.M != 2 || s.Swaps != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestStatsIgnoresBarriersAndID(t *testing.T) {
	c := New(2, 2)
	c.Barrier().ID(0).Barrier(0, 1)
	s := c.Stats()
	if s.SG != 0 || s.CX != 0 || s.M != 0 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestDepth(t *testing.T) {
	c := New(3, 3)
	// Layer 1: H(0), H(1); layer 2: CX(0,1); layer 3: CX(1,2); layer 4: M.
	c.H(0).H(1).CX(0, 1).CX(1, 2).Measure(2, 2)
	if d := c.Depth(); d != 4 {
		t.Fatalf("Depth = %d, want 4", d)
	}
	// Parallel gates share a layer.
	p := New(4, 0)
	p.H(0).H(1).H(2).H(3)
	if d := p.Depth(); d != 1 {
		t.Fatalf("parallel Depth = %d, want 1", d)
	}
	if d := New(2, 0).Depth(); d != 0 {
		t.Fatalf("empty Depth = %d", d)
	}
}

func TestDepthBarrierSynchronizes(t *testing.T) {
	a := New(2, 0)
	a.H(0).H(1) // both in layer 1 without barrier between
	b := New(2, 0)
	b.H(0).Barrier().H(1) // barrier forces H(1) after H(0)
	if a.Depth() != 1 || b.Depth() != 2 {
		t.Fatalf("barrier depth: a=%d b=%d", a.Depth(), b.Depth())
	}
}

func TestInteractionGraph(t *testing.T) {
	c := New(4, 0)
	c.CX(0, 1).CX(1, 0).CZ(2, 3).CX(0, 1).H(2)
	edges := c.InteractionGraph()
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0].A != 0 || edges[0].B != 1 || edges[0].Count != 3 {
		t.Fatalf("edge[0] = %+v", edges[0])
	}
	if edges[1].A != 2 || edges[1].B != 3 || edges[1].Count != 1 {
		t.Fatalf("edge[1] = %+v", edges[1])
	}
}

func TestRemap(t *testing.T) {
	c := New(2, 2)
	c.H(0).CX(0, 1).MeasureAll()
	m := c.Remap([]int{5, 3}, 14)
	if m.NumQubits != 14 || m.NumClbits != 2 {
		t.Fatalf("registers: %d/%d", m.NumQubits, m.NumClbits)
	}
	if m.Ops[0].Qubits[0] != 5 {
		t.Fatalf("H went to %d", m.Ops[0].Qubits[0])
	}
	if m.Ops[1].Qubits[0] != 5 || m.Ops[1].Qubits[1] != 3 {
		t.Fatalf("CX went to %v", m.Ops[1].Qubits)
	}
	// Classical bits unchanged: measure of logical 1 (physical 3) writes bit 1.
	if m.Ops[3].Qubits[0] != 3 || m.Ops[3].Cbit != 1 {
		t.Fatalf("measure op = %+v", m.Ops[3])
	}
	// Original untouched.
	if c.Ops[0].Qubits[0] != 0 {
		t.Fatal("Remap mutated the source circuit")
	}
}

func TestRemapPanics(t *testing.T) {
	c := New(2, 2)
	c.CX(0, 1)
	mustPanic(t, func() { c.Remap([]int{0}, 14) })     // too short
	mustPanic(t, func() { c.Remap([]int{0, 0}, 14) })  // not injective
	mustPanic(t, func() { c.Remap([]int{0, 99}, 14) }) // out of range
	mustPanic(t, func() { c.Remap([]int{0, -1}, 14) }) // negative
}

func TestLowerSwaps(t *testing.T) {
	c := New(3, 0)
	c.SWAP(0, 2).H(1)
	l := c.LowerSwaps()
	if len(l.Ops) != 4 {
		t.Fatalf("lowered ops = %d", len(l.Ops))
	}
	if l.Ops[0].Kind != CX || l.Ops[1].Kind != CX || l.Ops[2].Kind != CX {
		t.Fatalf("lowering wrong: %v %v %v", l.Ops[0].Kind, l.Ops[1].Kind, l.Ops[2].Kind)
	}
	if l.Ops[0].Qubits[0] != 0 || l.Ops[1].Qubits[0] != 2 || l.Ops[2].Qubits[0] != 0 {
		t.Fatal("CX-CX-CX pattern must alternate direction")
	}
	if s := l.Stats(); s.Swaps != 0 || s.CX != 3 {
		t.Fatalf("lowered stats = %+v", s)
	}
}

func TestUsedQubits(t *testing.T) {
	c := New(6, 6)
	c.H(4).CX(1, 4).Measure(4, 0).Barrier()
	got := c.UsedQubits()
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("UsedQubits = %v", got)
	}
}

func TestMeasuredBits(t *testing.T) {
	c := New(3, 3)
	c.Measure(2, 0).Measure(0, 2)
	mb := c.MeasuredBits()
	if mb[0] != 2 || mb[1] != -1 || mb[2] != 0 {
		t.Fatalf("MeasuredBits = %v", mb)
	}
	// Later measurement overrides.
	c.Measure(1, 0)
	if c.MeasuredBits()[0] != 1 {
		t.Fatal("override not applied")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New(2, 2)
	c.RX(0, 0.7).CX(0, 1)
	cl := c.Clone()
	cl.Ops[0].Params[0] = 9
	cl.Ops[1].Qubits[0] = 1
	cl.Ops[1].Qubits[1] = 0
	if c.Ops[0].Params[0] != 0.7 || c.Ops[1].Qubits[0] != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestAppend(t *testing.T) {
	a := New(3, 3)
	a.H(0)
	b := New(2, 1)
	b.CX(0, 1).Measure(0, 0)
	a.Append(b)
	if len(a.Ops) != 3 {
		t.Fatalf("Append ops = %d", len(a.Ops))
	}
	mustPanic(t, func() { New(1, 0).Append(New(2, 0)) })
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []Op{
		{Kind: Kind(99), Qubits: []int{0}, Cbit: -1},
		{Kind: CX, Qubits: []int{0}, Cbit: -1},
		{Kind: H, Qubits: []int{5}, Cbit: -1},
		{Kind: CX, Qubits: []int{0, 0}, Cbit: -1},
		{Kind: RZ, Qubits: []int{0}, Cbit: -1}, // missing param
		{Kind: Measure, Qubits: []int{0}, Cbit: 9},
		{Kind: RZ, Qubits: []int{0}, Params: []float64{math.NaN()}, Cbit: -1},
		{Kind: RZ, Qubits: []int{0}, Params: []float64{math.Inf(-1)}, Cbit: -1},
		{Kind: U3, Qubits: []int{0}, Params: []float64{0, math.Inf(1), 0}, Cbit: -1},
	}
	for i, op := range cases {
		c := New(2, 2)
		c.Ops = append(c.Ops, op)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: corruption not caught", i)
		}
	}
}

// TestValidateRejectsEmptyRegister: a circuit on zero qubits, or one whose
// ops touch no qubit (nothing, or only barriers), has nothing to place or
// run, and says so instead of failing deep in the mapper.
func TestValidateRejectsEmptyRegister(t *testing.T) {
	err := New(0, 0).Validate()
	if err == nil || !strings.Contains(err.Error(), "empty register") {
		t.Fatalf("Validate on qubits 0 = %v, want an empty-register error", err)
	}
	if _, err := ParseText("qubits 0\n"); err == nil {
		t.Fatal("ParseText accepted qubits 0")
	}
	if _, err := ParseQASM("OPENQASM 2.0;\nqreg q[0];\n"); err == nil {
		t.Fatal("ParseQASM accepted qreg q[0]")
	}

	const want = "no gate or measurement"
	for i, c := range []*Circuit{New(1, 0), New(2, 2).Barrier(), New(2, 2).Barrier(0, 1)} {
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("builder case %d: err = %v, want %q", i, err, want)
		}
	}
	for _, src := range []string{"qubits 1\n", "qubits 2\ncbits 2\nbarrier\n", "qubits 2\nbarrier 0 1\n"} {
		if _, err := ParseText(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseText(%q): err = %v, want %q", src, err, want)
		}
	}
	for _, src := range []string{
		"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n",
		"OPENQASM 2.0;\nqreg q[2];\nbarrier q;\n",
		"OPENQASM 2.0;\nqreg q[2];\nbarrier q[0],q[1];\n",
	} {
		if _, err := ParseQASM(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseQASM(%q): err = %v, want %q", src, err, want)
		}
	}
	// One gate, or one measurement, on one qubit of a wider register is
	// enough: the untouched qubits are simply idle.
	if err := New(2, 0).H(0).Validate(); err != nil {
		t.Errorf("one gate on qubit 0 of 2: %v", err)
	}
	if err := New(2, 1).Measure(1, 0).Validate(); err != nil {
		t.Errorf("one measurement on qubit 1 of 2: %v", err)
	}
}

func TestMatrixUnitarity(t *testing.T) {
	oneQ := []struct {
		k      Kind
		params []float64
	}{
		{I, nil}, {X, nil}, {Y, nil}, {Z, nil}, {H, nil}, {S, nil}, {Sdg, nil},
		{T, nil}, {Tdg, nil}, {RX, []float64{0.3}}, {RY, []float64{1.1}},
		{RZ, []float64{2.2}}, {U1, []float64{0.4}}, {U2, []float64{0.1, 0.2}},
		{U3, []float64{0.5, 1.5, 2.5}},
	}
	for _, tc := range oneQ {
		m := Matrix1Q(tc.k, tc.params)
		if !m.IsUnitary(1e-12) {
			t.Errorf("%v is not unitary", tc.k)
		}
	}
	for _, k := range []Kind{CX, CZ, SWAP} {
		if !Matrix2Q(k).IsUnitary(1e-12) {
			t.Errorf("%v is not unitary", k)
		}
	}
}

func TestMatrixIdentities(t *testing.T) {
	// HZH = X
	h := Matrix1Q(H, nil)
	z := Matrix1Q(Z, nil)
	x := Matrix1Q(X, nil)
	hzh := h.Mul(z).Mul(h)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if d := hzh[i][j] - x[i][j]; math.Abs(real(d)) > 1e-12 || math.Abs(imag(d)) > 1e-12 {
				t.Fatalf("HZH != X at (%d,%d): %v vs %v", i, j, hzh[i][j], x[i][j])
			}
		}
	}
	// S*S = Z
	s := Matrix1Q(S, nil)
	ss := s.Mul(s)
	if ss != z {
		t.Fatalf("SS != Z: %v", ss)
	}
	// U3(pi/2, 0, pi) == H up to rounding.
	u := Matrix1Q(U3, []float64{math.Pi / 2, 0, math.Pi})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			d := u[i][j] - h[i][j]
			if math.Abs(real(d)) > 1e-12 || math.Abs(imag(d)) > 1e-12 {
				t.Fatalf("U3(pi/2,0,pi) != H at (%d,%d)", i, j)
			}
		}
	}
	// RZ(theta) equals U1(theta) up to global phase exp(-i theta/2).
	theta := 0.77
	rz := Matrix1Q(RZ, []float64{theta})
	u1 := Matrix1Q(U1, []float64{theta})
	phase := rz[0][0] // exp(-i theta/2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			d := rz[i][j] - phase*u1[i][j]
			if math.Abs(real(d)) > 1e-12 || math.Abs(imag(d)) > 1e-12 {
				t.Fatalf("RZ != phase*U1 at (%d,%d)", i, j)
			}
		}
	}
}

func TestKindMeta(t *testing.T) {
	if CX.Arity() != 2 || H.Arity() != 1 || Barrier.Arity() != -1 {
		t.Fatal("Arity wrong")
	}
	if U3.NumParams() != 3 || U2.NumParams() != 2 || RZ.NumParams() != 1 || H.NumParams() != 0 {
		t.Fatal("NumParams wrong")
	}
	if Measure.IsUnitary() || Barrier.IsUnitary() || !H.IsUnitary() {
		t.Fatal("IsUnitary wrong")
	}
	if !SWAP.IsTwoQubit() || H.IsTwoQubit() {
		t.Fatal("IsTwoQubit wrong")
	}
	if k, ok := KindFromName("cx"); !ok || k != CX {
		t.Fatal("KindFromName wrong")
	}
	if _, ok := KindFromName("nope"); ok {
		t.Fatal("KindFromName accepted garbage")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("out-of-range Kind String wrong")
	}
}

func TestMatrix1QPanics(t *testing.T) {
	mustPanic(t, func() { Matrix1Q(CX, nil) })
	mustPanic(t, func() { Matrix1Q(RZ, nil) })
	mustPanic(t, func() { Matrix2Q(H) })
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
