package statevec

import (
	"fmt"
	"math"
	"testing"

	"edm/internal/circuit"
	"edm/internal/rng"
)

// dropped is one qubit removed by ProjectDrop: its index on the full
// register and the outcome it was projected onto.
type dropped struct{ q, outcome int }

// gatherKept returns the amplitudes of the full-register state f whose
// dropped qubits hold their outcomes, in ascending index order — the
// register ProjectDrop must leave, since the compaction map is monotone.
func gatherKept(f *State, drops []dropped) (re, im []float64) {
	for b := range f.re {
		keep := true
		for _, d := range drops {
			if b>>uint(d.q)&1 != d.outcome {
				keep = false
			}
		}
		if keep {
			re = append(re, f.re[b])
			im = append(im, f.im[b])
		}
	}
	return re, im
}

// compareKept requires s to hold exactly the kept amplitudes, bit for bit
// (zero signs included).
func compareKept(t *testing.T, tag string, s *State, re, im []float64) {
	t.Helper()
	if len(s.re) != len(re) || len(s.im) != len(im) || 1<<uint(s.N()) != len(re) {
		t.Fatalf("%s: width %d holds %d/%d amplitudes, want %d", tag, s.N(), len(s.re), len(s.im), len(re))
	}
	for i := range re {
		if math.Float64bits(s.re[i]) != math.Float64bits(re[i]) ||
			math.Float64bits(s.im[i]) != math.Float64bits(im[i]) {
			t.Fatalf("%s: amplitude %d = (%v, %v), want (%v, %v)", tag, i, s.re[i], s.im[i], re[i], im[i])
		}
	}
}

// registerIndex maps full-register qubit q to its index on the register
// left after drops: every dropped qubit below q shifts it down by one.
func registerIndex(q int, drops []dropped) int {
	r := q
	for _, d := range drops {
		if d.q < q {
			r--
		}
	}
	return r
}

// TestProjectDropMatchesProjectGather pins State.ProjectDrop to Project
// followed by gathering the kept half, amplitude for amplitude, for the
// lowest, a middle and the highest qubit with both outcomes, on the
// scalar and (where available) AVX2 kernel paths.
func TestProjectDropMatchesProjectGather(t *testing.T) {
	defer setKernelAVX2(true)
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			if _, ok := setKernelAVX2(path.avx); !ok {
				t.Skipf("kernel path %q unavailable", path.name)
			}
			for _, n := range []int{1, 3, 6} {
				for _, q := range []int{0, n / 2, n - 1} {
					for outcome := 0; outcome < 2; outcome++ {
						tag := fmt.Sprintf("n=%d q=%d outcome=%d", n, q, outcome)
						src := randomState(n, rng.New(uint64(700+10*n+q)))
						full := src.Clone()
						full.Project(q, outcome)
						re, im := gatherKept(full, []dropped{{q, outcome}})
						got := src.Clone()
						got.ProjectDrop(q, outcome)
						compareKept(t, tag, got, re, im)
					}
				}
			}
		})
	}
}

// TestProjectDropChainMatchesFullRegister drops qubits one by one down
// to an empty register while a full-register twin only projects, with
// random gates, branch-probability reductions and damping branches on
// the surviving qubits in between: the narrowed state must stay the
// twin's kept amplitudes, and every reduction must agree bit for bit.
func TestProjectDropChainMatchesFullRegister(t *testing.T) {
	defer setKernelAVX2(true)
	gamma := 0.27
	damp := []circuit.Matrix2{
		{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}},
		{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}},
	}
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			if _, ok := setKernelAVX2(path.avx); !ok {
				t.Skipf("kernel path %q unavailable", path.name)
			}
			const n = 5
			r := rng.New(4711)
			full := randomState(n, r)
			narrow := full.Clone()
			var drops []dropped
			live := []int{0, 1, 2, 3, 4}
			for _, q := range []int{2, 4, 0, 3, 1} {
				// Gates and reductions on every surviving qubit.
				for _, p := range live {
					m := randomDense2(r)
					full.Apply1Q(m, p)
					narrow.Apply1Q(m, registerIndex(p, drops))
					var pf, pn [2]float64
					full.KrausBranchProbs1Q(damp, p, pf[:])
					narrow.KrausBranchProbs1Q(damp, registerIndex(p, drops), pn[:])
					for i := range pf {
						if math.Float64bits(pf[i]) != math.Float64bits(pn[i]) {
							t.Fatalf("Kraus branch %d on qubit %d: %v vs %v", i, p, pn[i], pf[i])
						}
					}
					full.ApplyKrausBranch1Q(damp, p, 0, pf[0])
					narrow.ApplyKrausBranch1Q(damp, registerIndex(p, drops), 0, pn[0])
				}
				if len(live) >= 2 {
					m := randomDense4(r)
					a, b := live[0], live[len(live)-1]
					full.Apply2Q(m, a, b)
					narrow.Apply2Q(m, registerIndex(a, drops), registerIndex(b, drops))
				}
				p1 := full.ProbabilityOne(q)
				if got := narrow.ProbabilityOne(registerIndex(q, drops)); math.Float64bits(got) != math.Float64bits(p1) {
					t.Fatalf("ProbabilityOne(%d) = %v, full register %v", q, got, p1)
				}
				outcome := 0
				if p1 >= 0.5 {
					outcome = 1
				}
				full.Project(q, outcome)
				narrow.ProjectDrop(registerIndex(q, drops), outcome)
				drops = append(drops, dropped{q, outcome})
				for i, p := range live {
					if p == q {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
				re, im := gatherKept(full, drops)
				compareKept(t, fmt.Sprintf("after dropping qubit %d", q), narrow, re, im)
			}
			if narrow.N() != 0 {
				t.Fatalf("register width %d after dropping every qubit", narrow.N())
			}
		})
	}
}

// TestProjectDropBatchLanes pins Batch.ProjectDrop on a multi-lane batch
// whose lanes take different outcomes: every lane must equal its own
// Project-then-gather, for the lowest, a middle and the highest qubit,
// and the narrowed lanes must stay one flat array — a batch kernel
// afterwards equals the per-lane State kernel, and clones and pushes
// work at the new width.
func TestProjectDropBatchLanes(t *testing.T) {
	defer setKernelAVX2(true)
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			if _, ok := setKernelAVX2(path.avx); !ok {
				t.Skipf("kernel path %q unavailable", path.name)
			}
			const n, lanes = 5, 5
			outcomes := []int{0, 1, 1, 0, 1}
			for _, q := range []int{0, n / 2, n - 1} {
				tag := fmt.Sprintf("q=%d", q)
				r := rng.New(uint64(9100 + q))
				b := GetBatch(n, lanes+2)
				want := make([]*State, lanes)
				norms := make([]float64, lanes)
				for i := 0; i < lanes; i++ {
					src := randomState(n, r)
					b.PushLane(src)
					p0, p1 := src.PopsAfter(nil, q)
					norms[i] = [2]float64{p0, p1}[outcomes[i]]
					full := src.Clone()
					full.Project(q, outcomes[i])
					re, im := gatherKept(full, []dropped{{q, outcomes[i]}})
					want[i] = NewState(n - 1)
					copy(want[i].re, re)
					copy(want[i].im, im)
				}
				b.ProjectDrop(q, outcomes, norms)
				if b.N() != n-1 || b.Live() != lanes {
					t.Fatalf("%s: batch width %d with %d lanes after drop", tag, b.N(), b.Live())
				}
				for i := 0; i < lanes; i++ {
					compareKept(t, fmt.Sprintf("%s lane %d", tag, i), b.Lane(i), want[i].re, want[i].im)
				}
				m := randomDense2(r)
				b.Apply1QBatch(m, n-2)
				for _, w := range want {
					w.Apply1Q(m, n-2)
				}
				c := b.CloneLane(2)
				p := b.PushLane(want[4])
				for i := 0; i < lanes; i++ {
					compareKept(t, fmt.Sprintf("%s lane %d after batch kernel", tag, i), b.Lane(i), want[i].re, want[i].im)
				}
				compareKept(t, tag+" cloned lane", b.Lane(c), want[2].re, want[2].im)
				compareKept(t, tag+" pushed lane", b.Lane(p), want[4].re, want[4].im)
				b.Release()
			}
		})
	}
}

// TestProjectDropReusesBuffer pins the scratch-state contract the
// trajectory engines rely on: ProjectDrop narrows an owned state in place
// (no allocation), CopyFrom takes a narrower snapshot's width and a full
// one's back, Reset restores the full register, and a Batch lane view
// refuses the single-state primitive.
func TestProjectDropReusesBuffer(t *testing.T) {
	src := scrambled()
	s := NewState(3)
	s.CopyFrom(src)
	if allocs := testing.AllocsPerRun(1, func() {
		s.CopyFrom(src)
		s.ProjectDrop(1, 0)
		s.ProjectDrop(0, 0) // qubits 0 and 1 are Bell-correlated
	}); allocs != 0 {
		t.Fatalf("ProjectDrop allocated %v times", allocs)
	}
	if s.N() != 1 {
		t.Fatalf("width %d after two drops, want 1", s.N())
	}
	narrow := s.Clone()
	s.CopyFrom(src)
	if !statesEqual(s, src) {
		t.Fatal("CopyFrom of a full state did not widen a narrowed scratch")
	}
	s.CopyFrom(narrow)
	if !statesEqual(s, narrow) {
		t.Fatal("CopyFrom of a narrowed snapshot did not narrow the scratch")
	}
	s.Reset()
	if !statesEqual(s, NewState(3)) {
		t.Fatal("Reset did not restore the full |000> register")
	}

	p := GetState(4)
	p.Apply1Q(circuit.Matrix1Q(circuit.H, nil), 3)
	p.ProjectDrop(3, 1)
	PutState(p)
	if g := GetState(4); !statesEqual(g, NewState(4)) {
		t.Fatal("a recycled narrowed buffer did not come back as a full |0000>")
	}

	b := GetBatch(2, 1)
	defer b.Release()
	b.PushLane(nil)
	mustPanic(t, func() { b.Lane(0).ProjectDrop(0, 0) })
	mustPanic(t, func() { b.ProjectDrop(0, []int{0, 1}, []float64{1, 1}) })
	mustPanic(t, func() { NewState(2).ProjectDrop(0, 1) })
}
