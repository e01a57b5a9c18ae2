package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"unsafe"

	"edm/internal/circuit"
	"edm/internal/rng"
)

// TestPopArgsLayout pins the popArgs field offsets kernels_amd64.s
// reads (its PA_* constants).
func TestPopArgsLayout(t *testing.T) {
	var pa popArgs
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"re", unsafe.Offsetof(pa.re), 0},
		{"im", unsafe.Offsetof(pa.im), 8},
		{"off", unsafe.Offsetof(pa.off), 16},
		{"tab", unsafe.Offsetof(pa.tab), 48},
		{"hb", unsafe.Offsetof(pa.hb), 176},
		{"nu", unsafe.Offsetof(pa.nu), 240},
		{"n", unsafe.Offsetof(pa.n), 248},
		{"runLen", unsafe.Offsetof(pa.runLen), 256},
		{"pbm1", unsafe.Offsetof(pa.pbm1), 264},
		{"npbm1", unsafe.Offsetof(pa.npbm1), 272},
		{"mode", unsafe.Offsetof(pa.mode), 280},
		{"sel", unsafe.Offsetof(pa.sel), 288},
		{"acc", unsafe.Offsetof(pa.acc), 320},
	} {
		if f.got != f.want {
			t.Errorf("popArgs.%s at offset %d, kernels_amd64.s reads %d", f.name, f.got, f.want)
		}
	}
	var d Diag
	if unsafe.Sizeof(d.rows[0]) != 64 {
		t.Errorf("Diag rows are %d bytes apart, kernels_amd64.s steps 64", unsafe.Sizeof(d.rows[0]))
	}
}

func diag1Q(d0, d1 complex128, q int) (d Diag) {
	d.Set1Q(d0, d1, q)
	return d
}

func diag2Q(c [4]complex128, q0, q1 int) (d Diag) {
	d.Set2Q(c, q0, q1)
	return d
}

func scaleDiag(c complex128) (d Diag) {
	d.SetScale(c)
	return d
}

// TestDiagSettersMatchLayout pins SetScale's and Set1Q's direct rows to
// the general layout (set) for every qubit.
func TestDiagSettersMatchLayout(t *testing.T) {
	c0, c1 := complex(0.6, -0.8), complex(-0.28, 0.96)
	var got, want Diag
	got.SetScale(c0)
	want.set(0, 0, &[4]complex128{c0, c0, c0, c0})
	if got != want {
		t.Fatalf("SetScale rows %v, layout %v", got.rows, want.rows)
	}
	for q := 0; q < MaxQubits; q++ {
		got, want = Diag{}, Diag{}
		got.Set1Q(c0, c1, q)
		want.set(1<<uint(q), 0, &[4]complex128{c0, c1, c0, c1})
		if got != want {
			t.Fatalf("Set1Q on qubit %d: rows %v, layout %v", q, got.rows, want.rows)
		}
	}
}

// pendingOp is one diagonal update in the two forms the tests compare:
// the Diag a pending list holds, and the unfused State call it stands
// for.
type pendingOp struct {
	d     Diag
	apply func(s *State)
	desc  string
}

// dampBranch is a damping branch pre-scaled by 1/sqrt(p), the way
// ApplyKrausBranch1Q computes its diagonal.
func dampBranch(q int, gamma, p float64) pendingOp {
	inv := complex(1/math.Sqrt(p), 0)
	k00, k11 := complex(1, 0), complex(math.Sqrt(1-gamma), 0)
	d0, d1 := k00*inv, k11*inv
	return pendingOp{diag1Q(d0, d1, q), func(s *State) { s.Apply1QDiag(d0, d1, q) }, fmt.Sprintf("damp(%d)", q)}
}

func rzOp(q int, theta float64) pendingOp {
	d0, d1 := cmplx.Exp(complex(0, -theta/2)), cmplx.Exp(complex(0, theta/2))
	return pendingOp{diag1Q(d0, d1, q), func(s *State) { s.Apply1QDiag(d0, d1, q) }, fmt.Sprintf("rz(%d)", q)}
}

func zzOp(q0, q1 int, theta float64) pendingOp {
	em, ep := cmplx.Exp(complex(0, -theta)), cmplx.Exp(complex(0, theta))
	d := [4]complex128{em, ep, ep, em}
	return pendingOp{diag2Q(d, q0, q1), func(s *State) { s.Apply2QDiag(d, q0, q1) }, fmt.Sprintf("zz(%d,%d)", q0, q1)}
}

func scaleOp(c complex128) pendingOp {
	return pendingOp{scaleDiag(c), func(s *State) { s.Scale(c) }, "scale"}
}

// randomPendingOp draws one update on an n-qubit register.
func randomPendingOp(n int, r *rng.RNG) pendingOp {
	kind := r.Intn(4)
	if n == 0 {
		kind = 3
	}
	if n == 1 && kind == 2 {
		kind = 1
	}
	switch kind {
	case 0:
		return dampBranch(r.Intn(n), 0.01+0.2*r.Float64(), 0.5+0.5*r.Float64())
	case 1:
		return rzOp(r.Intn(n), 6*r.Float64())
	case 2:
		q0 := r.Intn(n)
		q1 := r.Intn(n - 1)
		if q1 >= q0 {
			q1++
		}
		return zzOp(q0, q1, 2*r.Float64())
	default:
		return scaleOp(cmplx.Exp(complex(0, 6*r.Float64())) * complex(0.5+r.Float64(), 0))
	}
}

// signedZeroState is a random state with some amplitudes replaced by
// +0 or -0 parts, so a kernel that loses a zero's sign shows.
func signedZeroState(n int, r *rng.RNG) *State {
	s := randomState(n, r)
	for i := range s.re {
		switch r.Intn(6) {
		case 0:
			s.re[i] = math.Copysign(0, -1)
		case 1:
			s.im[i] = math.Copysign(0, -1)
		case 2:
			s.re[i], s.im[i] = 0, math.Copysign(0, -1)
		}
	}
	return s
}

// unfusedPops is the oracle for PopsAfter: each update through its own
// State call, then the populations the way the engines read them —
// KrausBranchProbs1Q with the projectors diag(1, 0) and diag(0, 1),
// whose branch weights are exactly p0 and p1, and ProbabilityOne for
// p1; KrausBranchProbsZero for a qubit outside the register.
func unfusedPops(t *testing.T, s *State, ops []pendingOp, q int) (p0, p1 float64) {
	t.Helper()
	for _, op := range ops {
		op.apply(s)
	}
	proj := []circuit.Matrix2{{{1, 0}, {0, 0}}, {{0, 0}, {0, 1}}}
	var probs [2]float64
	if q == -1 {
		s.KrausBranchProbsZero(proj, probs[:])
		return probs[0], probs[1]
	}
	s.KrausBranchProbs1Q(proj, q, probs[:])
	if p := s.ProbabilityOne(q); math.Float64bits(p) != math.Float64bits(probs[1]) {
		t.Fatalf("oracle disagrees with itself: ProbabilityOne %v, Kraus weight %v", p, probs[1])
	}
	return probs[0], probs[1]
}

func diagsOf(ops []pendingOp) []Diag {
	ds := make([]Diag, len(ops))
	for i, op := range ops {
		ds[i] = op.d
	}
	return ds
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireStatesEqual compares every amplitude bit for bit.
func requireStatesEqual(t *testing.T, tag string, got, want *State) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: width %d, want %d", tag, got.n, want.n)
	}
	for i := range want.re {
		if !sameBits(got.re[i], want.re[i]) || !sameBits(got.im[i], want.im[i]) {
			t.Fatalf("%s: amplitude %d = (%v, %v), unfused (%v, %v)", tag, i, got.re[i], got.im[i], want.re[i], want.im[i])
		}
	}
}

// forKernelPaths runs body on the scalar path and, where the CPU has
// it, the AVX2 path; under -tags purego only the scalar one exists.
func forKernelPaths(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	defer setKernelAVX2(true)
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			if _, ok := setKernelAVX2(path.avx); !ok {
				t.Skipf("kernel path %q unavailable", path.name)
			}
			body(t)
		})
	}
}

// TestPopsAfterBitIdentical pins the fused pass to the unfused sequence
// at widths 0-12: for every pair of update qubit and population qubit
// (the population qubit also outside the register), with a damping
// branch, an RZ and a ZZ on the update qubit, and then with random
// pending lists of up to MaxPending updates mixing damping branches, 1Q
// and 2Q diagonals and scales. Amplitudes and both populations must
// match bit for bit.
func TestPopsAfterBitIdentical(t *testing.T) {
	forKernelPaths(t, func(t *testing.T) {
		r := rng.New(404)
		for n := 0; n <= 12; n++ {
			base := signedZeroState(n, r.DeriveN("state", n))
			check := func(ops []pendingOp, q int) {
				t.Helper()
				got, want := base.Clone(), base.Clone()
				p0, p1 := got.PopsAfter(diagsOf(ops), q)
				w0, w1 := unfusedPops(t, want, ops, q)
				tag := fmt.Sprintf("n=%d q=%d ops=%v", n, q, opDescs(ops))
				if !sameBits(p0, w0) || !sameBits(p1, w1) {
					t.Fatalf("%s: populations (%v, %v), unfused (%v, %v)", tag, p0, p1, w0, w1)
				}
				requireStatesEqual(t, tag, got, want)
			}
			for q := -1; q < n; q++ {
				check(nil, q)
				check([]pendingOp{scaleOp(complex(0.8, -0.6))}, q)
				for u := 0; u < n; u++ {
					check([]pendingOp{dampBranch(u, 0.05, 0.97)}, q)
					check([]pendingOp{rzOp(u, 0.7), dampBranch(u, 0.1, 0.9)}, q)
					for v := 0; v < n; v++ {
						if v != u {
							check([]pendingOp{zzOp(u, v, 0.3)}, q)
						}
					}
				}
			}
			for trial := 0; trial < 40; trial++ {
				ops := make([]pendingOp, r.Intn(MaxPending+1))
				for i := range ops {
					ops[i] = randomPendingOp(n, r)
				}
				check(ops, r.Intn(n+1)-1)
			}
		}
	})
}

func opDescs(ops []pendingOp) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.desc
	}
	return out
}

// TestApplyDiagsMatchesCalls pins the flush of a pending list to the
// State calls its updates stand for.
func TestApplyDiagsMatchesCalls(t *testing.T) {
	forKernelPaths(t, func(t *testing.T) {
		r := rng.New(405)
		for n := 0; n <= 10; n++ {
			for trial := 0; trial < 20; trial++ {
				base := signedZeroState(n, r)
				ops := make([]pendingOp, 1+r.Intn(MaxPending))
				for i := range ops {
					ops[i] = randomPendingOp(n, r)
				}
				got, want := base.Clone(), base.Clone()
				got.ApplyDiags(diagsOf(ops))
				for _, op := range ops {
					op.apply(want)
				}
				requireStatesEqual(t, fmt.Sprintf("n=%d ops=%v", n, opDescs(ops)), got, want)
			}
		}
	})
}

// TestPopsLanesBitIdentical pins the multi-lane pass to PopsAfter's
// oracle lane by lane: 1-5 lanes at widths 0-12, every population
// qubit, lanes whose pending lists share a shape (one pass holds their
// chains side by side) mixed with lanes whose lists differ.
func TestPopsLanesBitIdentical(t *testing.T) {
	forKernelPaths(t, func(t *testing.T) {
		r := rng.New(406)
		for n := 0; n <= 12; n++ {
			for nl := 1; nl <= 5; nl++ {
				for q := -1; q < n; q++ {
					b := GetBatch(n, nl)
					lanes := make([]int, nl)
					oracle := make([]*State, nl)
					shared := make([]pendingOp, r.Intn(MaxPending))
					for i := range shared {
						shared[i] = randomPendingOp(n, r)
					}
					ops := make([][]pendingOp, nl)
					for l := 0; l < nl; l++ {
						s := signedZeroState(n, r)
						oracle[l] = s
						lanes[l] = b.PushLane(s)
						if r.Intn(3) == 0 {
							// Another shape.
							ops[l] = []pendingOp{randomPendingOp(n, r)}
							continue
						}
						// The shared shape with this lane's own coefficients:
						// a damping branch of another probability.
						ops[l] = append([]pendingOp(nil), shared...)
						if n > 0 {
							ops[l] = append(ops[l], dampBranch(n/2, 0.05, 0.5+0.5*r.Float64()))
						}
					}
					// Lanes in a scrambled order, to pin the result positions.
					for i := range lanes {
						j := r.Intn(i + 1)
						lanes[i], lanes[j] = lanes[j], lanes[i]
					}
					ds := make([][]Diag, nl)
					for i, l := range lanes {
						ds[i] = diagsOf(ops[l])
					}
					p0 := make([]float64, nl)
					p1 := make([]float64, nl)
					b.PopsLanes(lanes, ds, q, p0, p1)
					for i, l := range lanes {
						w0, w1 := unfusedPops(t, oracle[l], ops[l], q)
						tag := fmt.Sprintf("n=%d lanes=%d q=%d lane %d ops=%v", n, nl, q, l, opDescs(ops[l]))
						if !sameBits(p0[i], w0) || !sameBits(p1[i], w1) {
							t.Fatalf("%s: populations (%v, %v), unfused (%v, %v)", tag, p0[i], p1[i], w0, w1)
						}
						requireStatesEqual(t, tag, b.Lane(l), oracle[l])
					}
					b.Release()
				}
			}
		}
	})
}

// TestCollapseReusesNorm pins norm reuse: the p0 or p1 a population
// pass returns is the norm Project, ProjectDrop and Renormalize sum, so
// collapsing with it leaves their amplitudes bit for bit, for widths
// 1-11, every qubit and both outcomes; Batch.ProjectDrop with norms
// matches State.ProjectDrop lane by lane.
func TestCollapseReusesNorm(t *testing.T) {
	forKernelPaths(t, func(t *testing.T) {
		r := rng.New(407)
		for n := 1; n <= 11; n++ {
			base := signedZeroState(n, r)
			{
				got, want := base.Clone(), base.Clone()
				p0, _ := got.PopsAfter(nil, -1)
				got.Collapse(-1, 0, p0, false)
				want.Renormalize()
				requireStatesEqual(t, fmt.Sprintf("n=%d outside", n), got, want)
			}
			for q := 0; q < n; q++ {
				for k := 0; k < 2; k++ {
					for _, drop := range []bool{false, true} {
						got, want := base.Clone(), base.Clone()
						p := [2]float64{}
						p[0], p[1] = got.PopsAfter(nil, q)
						if p[k] == 0 {
							continue // a zero-probability outcome is never drawn
						}
						got.Collapse(q, k, p[k], drop)
						if drop {
							want.ProjectDrop(q, k)
						} else {
							want.Project(q, k)
						}
						requireStatesEqual(t, fmt.Sprintf("n=%d q=%d k=%d drop=%v", n, q, k, drop), got, want)
					}
				}
				b := GetBatch(n, 3)
				outcomes := make([]int, 3)
				norms := make([]float64, 3)
				want := make([]*State, 3)
				for l := range want {
					s := signedZeroState(n, r)
					b.PushLane(s)
					outcomes[l] = r.Intn(2)
					var p [2]float64
					p[0], p[1] = b.Lane(l).PopsAfter(nil, q)
					if p[outcomes[l]] == 0 {
						outcomes[l] ^= 1
					}
					norms[l] = p[outcomes[l]]
					want[l] = s
					s.ProjectDrop(q, outcomes[l])
				}
				b.ProjectDrop(q, outcomes, norms)
				for l := range want {
					requireStatesEqual(t, fmt.Sprintf("n=%d q=%d batch lane %d", n, q, l), b.Lane(l), want[l])
				}
				b.Release()
			}
		}
	})
}
