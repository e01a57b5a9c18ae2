package statevec

import (
	"fmt"
	"math"
	"testing"

	"edm/internal/circuit"
	"edm/internal/rng"
)

// withZeroQubit returns the full-register oracle of Enter: src widened
// by a qubit in |0> at index q, built by index arithmetic — amplitude b
// of src lands at b with a zero bit inserted at q, and every amplitude
// with that bit set is +0.
func withZeroQubit(src *State, q int) (re, im []float64) {
	n := src.N()
	re = make([]float64, 2<<uint(n))
	im = make([]float64, 2<<uint(n))
	low := 1<<uint(q) - 1
	for b := 0; b < 1<<uint(n); b++ {
		d := (b&^low)<<1 | b&low
		re[d], im[d] = src.re[b], src.im[b]
	}
	return re, im
}

// compareValues requires s to hold amplitudes equal to re/im by value:
// bit for bit, except that +0 and -0 compare equal. A full-register twin
// keeps exact zeros where a qubit outside the narrow register is set,
// and the diagonal steps it runs on them can flip their sign; no
// probability sees that sign, since every reduction sums squares.
func compareValues(t *testing.T, tag string, s *State, re, im []float64) {
	t.Helper()
	if len(s.re) != len(re) || 1<<uint(s.N()) != len(re) {
		t.Fatalf("%s: width %d holds %d amplitudes, want %d", tag, s.N(), len(s.re), len(re))
	}
	for i := range re {
		if s.re[i] != re[i] || s.im[i] != im[i] {
			t.Fatalf("%s: amplitude %d = (%v, %v), want (%v, %v)", tag, i, s.re[i], s.im[i], re[i], im[i])
		}
	}
}

// TestEnterMatchesOracle pins State.Enter and Batch.Enter to the
// index-arithmetic oracle, bit for bit, at the lowest, a middle and the
// top index, from the empty register up: a 5-lane batch must widen
// every lane exactly as State.Enter widens it alone and stay one flat
// array, so a batch kernel afterwards equals the per-lane kernel and
// clones and pushes work at the new width.
func TestEnterMatchesOracle(t *testing.T) {
	defer setKernelAVX2(true)
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			if _, ok := setKernelAVX2(path.avx); !ok {
				t.Skipf("kernel path %q unavailable", path.name)
			}
			const lanes = 5
			for _, n := range []int{0, 1, 3, 5} {
				for _, q := range []int{0, n / 2, n} {
					tag := fmt.Sprintf("n=%d q=%d", n, q)
					r := rng.New(uint64(800 + 10*n + q))
					b := GetBatch(n+1, lanes+2)
					want := make([]*State, lanes)
					for i := 0; i < lanes; i++ {
						src := randomState(n, r)
						re, im := withZeroQubit(src, q)
						got := GetState(n + 1)
						got.CopyFrom(src)
						got.Enter(q)
						compareKept(t, tag, got, re, im)
						PutState(got)

						b.PushLane(src)
						want[i] = NewState(n + 1)
						copy(want[i].re, re)
						copy(want[i].im, im)
					}
					if b.N() != n {
						t.Fatalf("%s: batch width %d after pushing %d-qubit lanes", tag, b.N(), n)
					}
					b.Enter(q)
					if b.N() != n+1 || b.Live() != lanes {
						t.Fatalf("%s: batch width %d with %d lanes after Enter", tag, b.N(), b.Live())
					}
					for i, w := range want {
						compareKept(t, fmt.Sprintf("%s lane %d", tag, i), b.Lane(i), w.re, w.im)
					}
					m := randomDense2(r)
					b.Apply1QBatch(m, q)
					c := complex(r.Float64(), r.Float64())
					b.Apply1QDiagBatch(c, c, q)
					for _, w := range want {
						w.Apply1Q(m, q)
						w.Apply1QDiag(c, c, q)
					}
					cl := b.CloneLane(2)
					p := b.PushLane(want[4])
					for i, w := range want {
						compareKept(t, fmt.Sprintf("%s lane %d after batch kernels", tag, i), b.Lane(i), w.re, w.im)
					}
					compareKept(t, tag+" cloned lane", b.Lane(cl), want[2].re, want[2].im)
					compareKept(t, tag+" pushed lane", b.Lane(p), want[4].re, want[4].im)
					b.Release()
				}
			}
		})
	}
}

// TestEnterDropChainMatchesFullRegister runs a register that starts
// empty, lets qubits enter one by one and drops them again, against a
// full-register twin that holds every qubit throughout. While a qubit
// is outside, diagonal steps, damping and a measurement act on it
// through the outside-qubit methods; once in, gates and reductions act
// at its register index. Every branch probability must agree bit for
// bit and the register must equal the twin's amplitudes with every
// outside qubit clear and every dropped qubit at its outcome.
func TestEnterDropChainMatchesFullRegister(t *testing.T) {
	defer setKernelAVX2(true)
	gamma, lambda, pz := 0.27, 0.19, 0.08
	damp := []circuit.Matrix2{
		{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}},
		{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}},
	}
	dephase := []circuit.Matrix2{
		{{1, 0}, {0, complex(math.Sqrt(1-lambda), 0)}},
		{{0, 0}, {0, complex(math.Sqrt(lambda), 0)}},
	}
	// Z errors leave |0> in place with either branch, so an outside
	// qubit takes branch 1 with nonzero probability.
	zflip := []circuit.Matrix2{
		{{complex(math.Sqrt(1-pz), 0), 0}, {0, complex(math.Sqrt(1-pz), 0)}},
		{{complex(math.Sqrt(pz), 0), 0}, {0, complex(-math.Sqrt(pz), 0)}},
	}
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			if _, ok := setKernelAVX2(path.avx); !ok {
				t.Skipf("kernel path %q unavailable", path.name)
			}
			const n = 5
			r := rng.New(4242)
			full := NewState(n)
			narrow := GetState(n)
			defer PutState(narrow)
			narrow.CopyFrom(NewState(0))
			live := make([]bool, n)    // in the narrow register
			gone := make([]bool, n)    // dropped
			var fixed []dropped        // full-register bits the narrow register leaves out
			index := func(q int) int { // register index of a live qubit
				k := 0
				for p := 0; p < q; p++ {
					if live[p] {
						k++
					}
				}
				return k
			}
			check := func(tag string) {
				t.Helper()
				var out []dropped
				for q := 0; q < n; q++ {
					if !live[q] && !gone[q] {
						out = append(out, dropped{q, 0})
					}
				}
				re, im := gatherKept(full, append(out, fixed...))
				compareValues(t, tag, narrow, re, im)
			}
			probsAgree := func(tag string, pf, pn []float64) {
				t.Helper()
				for i := range pf {
					if math.Float64bits(pf[i]) != math.Float64bits(pn[i]) {
						t.Fatalf("%s: branch %d probability %v, full register %v", tag, i, pn[i], pf[i])
					}
				}
			}
			outsideSteps := func(q int) {
				t.Helper()
				// A diagonal 1Q step and a diagonal 2Q step onto a live
				// partner (or with both qubits outside).
				d0, d1 := complex(math.Cos(0.3), -math.Sin(0.3)), complex(math.Cos(0.3), math.Sin(0.3))
				full.Apply1QDiag(d0, d1, q)
				narrow.Scale(d0)
				zz := [4]complex128{d0, d1, d1, d0}
				partner := -1
				for p := 0; p < n; p++ {
					if p != q && !gone[p] {
						partner = p
						break
					}
				}
				full.Apply2QDiag(zz, q, partner)
				if live[partner] {
					narrow.Apply1QDiag(zz[0], zz[2], index(partner))
				} else {
					narrow.Scale(zz[0])
				}
				// Damping: both channels, then Z errors taking branch 1.
				for ci, ks := range [][]circuit.Matrix2{damp, dephase, zflip} {
					var pf, pn [2]float64
					full.KrausBranchProbs1Q(ks, q, pf[:])
					narrow.KrausBranchProbsZero(ks, pn[:])
					probsAgree(fmt.Sprintf("channel %d on outside qubit %d", ci, q), pf[:], pn[:])
					k := 0
					if ci == 2 {
						k = 1
					}
					full.ApplyKrausBranch1Q(ks, q, k, pf[k])
					narrow.ApplyKrausBranchZero(ks, k, pn[k])
				}
				check(fmt.Sprintf("after outside steps on qubit %d", q))
			}
			for _, q := range []int{3, 0, 4, 1} {
				outsideSteps(q)
				live[q] = true
				narrow.Enter(index(q))
				check(fmt.Sprintf("after qubit %d enters", q))
				for p := 0; p < n; p++ {
					if !live[p] {
						continue
					}
					m := randomDense2(r)
					full.Apply1Q(m, p)
					narrow.Apply1Q(m, index(p))
					var pf, pn [2]float64
					full.KrausBranchProbs1Q(damp, p, pf[:])
					narrow.KrausBranchProbs1Q(damp, index(p), pn[:])
					probsAgree(fmt.Sprintf("damping on live qubit %d", p), pf[:], pn[:])
					full.ApplyKrausBranch1Q(damp, p, 0, pf[0])
					narrow.ApplyKrausBranch1Q(damp, index(p), 0, pn[0])
				}
				check(fmt.Sprintf("after gates with qubit %d in", q))
			}
			// Qubit 2 never enters: measuring it observes +0 and only
			// renormalizes.
			if p1 := full.ProbabilityOne(2); math.Float64bits(p1) != 0 {
				t.Fatalf("outside qubit 2 has P(1) = %v on the full register", p1)
			}
			full.Project(2, 0)
			narrow.Renormalize()
			check("after measuring the outside qubit")
			// Drop the live qubits, then let the last one enter and go.
			for _, q := range []int{4, 0, 3} {
				m := randomDense4(r)
				full.Apply2Q(m, q, 1)
				narrow.Apply2Q(m, index(q), index(1))
				p1 := full.ProbabilityOne(q)
				if got := narrow.ProbabilityOne(index(q)); math.Float64bits(got) != math.Float64bits(p1) {
					t.Fatalf("ProbabilityOne(%d) = %v, full register %v", q, got, p1)
				}
				outcome := 0
				if p1 >= 0.5 {
					outcome = 1
				}
				full.Project(q, outcome)
				narrow.ProjectDrop(index(q), outcome)
				live[q], gone[q] = false, true
				fixed = append(fixed, dropped{q, outcome})
				check(fmt.Sprintf("after dropping qubit %d", q))
			}
			live[2] = true
			narrow.Enter(index(2))
			m := randomDense4(r)
			full.Apply2Q(m, 1, 2)
			narrow.Apply2Q(m, index(1), index(2))
			check("after the measured outside qubit enters")
			if narrow.N() != 2 {
				t.Fatalf("register width %d, want 2", narrow.N())
			}
		})
	}
}

// TestEnterContract pins the preconditions: Enter needs room in an owned
// buffer (a lane view refuses it, Batch.Enter needs room in the batch),
// an index in [0, N()], and the outside-qubit methods accept only Kraus
// sets that leave |0> in place.
func TestEnterContract(t *testing.T) {
	s := NewState(2)
	mustPanic(t, func() { s.Enter(0) }) // buffer holds exactly 2 qubits
	w := GetState(3)
	defer PutState(w)
	w.CopyFrom(s)
	mustPanic(t, func() { w.Enter(3) })
	mustPanic(t, func() { w.Enter(-1) })
	w.Enter(2)
	if w.N() != 3 {
		t.Fatalf("width %d after Enter, want 3", w.N())
	}

	b := GetBatch(2, 2)
	defer b.Release()
	b.PushLane(NewState(1))
	mustPanic(t, func() { b.PushLane(NewState(2)) })
	mustPanic(t, func() { b.Lane(0).Enter(0) })
	b.Enter(0)
	mustPanic(t, func() { b.Enter(0) })

	damp := []circuit.Matrix2{{{1, 0}, {0, 0.6}}, {{0, 0.8}, {0, 0}}}
	flip := []circuit.Matrix2{{{0.6, 0}, {0, 0.6}}, {{0, 0.8}, {0.8, 0}}}
	dense := []circuit.Matrix2{{{0.6, 0.1}, {0, 0.6}}, {{0.8, 0}, {0, 0.8}}}
	if !KrausKeepsZero(damp) || KrausKeepsZero(flip) || KrausKeepsZero(dense) {
		t.Fatal("KrausKeepsZero misclassifies damping, bit flips or dense operators")
	}
	var probs [2]float64
	mustPanic(t, func() { s.KrausBranchProbsZero(flip, probs[:]) })
	s.KrausBranchProbsZero(damp, probs[:])
	if probs[0] != 1 || probs[1] != 0 {
		t.Fatalf("damping an outside qubit: branch probabilities %v, want [1 0]", probs)
	}
	mustPanic(t, func() { s.ApplyKrausBranchZero(damp, 1, probs[1]) })
}
