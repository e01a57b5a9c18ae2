package statevec

import (
	"fmt"
	"testing"

	"edm/internal/circuit"
	"edm/internal/rng"
)

// benchSizes are the register widths the kernel micro-benchmarks sweep;
// 14 matches the Melbourne device the repo's experiments target.
// The benchmarks reuse randomState (statevec_test.go) so the kernels see
// a fully entangled state with no special structure to exploit.
var benchSizes = []int{6, 10, 14}

// denseMatrix4 left-multiplies (H ⊗ H) into CX, producing a 4x4 with no
// zero entries so no fast-path classification (diagonal, permutation)
// applies and Apply2Q exercises its general kernel.
func denseMatrix4() circuit.Matrix4 {
	h := circuit.Matrix1Q(circuit.H, nil)
	cx := circuit.Matrix2Q(circuit.CX)
	var hh circuit.Matrix4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			hh[r][c] = h[r&1][c&1] * h[r>>1][c>>1]
		}
	}
	var out circuit.Matrix4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			var acc complex128
			for k := 0; k < 4; k++ {
				acc += hh[r][k] * cx[k][c]
			}
			out[r][c] = acc
		}
	}
	return out
}

// BenchmarkApply1Q measures the general dense one-qubit kernel on the
// middle qubit of each register size.
func BenchmarkApply1Q(b *testing.B) {
	h := circuit.Matrix1Q(circuit.H, nil)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("q%d", n), func(b *testing.B) {
			s := randomState(n, rng.New(3))
			q := n / 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Apply1Q(h, q)
			}
		})
	}
}

// apply2QPairs are the ordered qubit pairs BenchmarkApply2Q sweeps on an
// n-qubit register: every layout whose lower qubit is 0 or 1 takes its
// own deinterleaving kernel, (2,3) the contiguous-run kernel and
// (0,n-1) the pairs kernel on halves of a whole lane.
func apply2QPairs(n int) [][2]int {
	return [][2]int{{0, 1}, {1, 0}, {0, 2}, {1, 2}, {1, n - 1}, {2, 3}, {0, n - 1}}
}

// BenchmarkApply2Q measures the general dense two-qubit kernel on each
// qubit-pair layout of apply2QPairs.
func BenchmarkApply2Q(b *testing.B) {
	dense := denseMatrix4()
	for _, n := range benchSizes {
		for _, p := range apply2QPairs(n) {
			b.Run(fmt.Sprintf("q%d/%d,%d", n, p[0], p[1]), func(b *testing.B) {
				s := randomState(n, rng.New(5))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Apply2Q(dense, p[0], p[1])
				}
			})
		}
	}
}

// laneQubits are the qubits BenchmarkProjectDrop and BenchmarkEnter
// sweep on an n-qubit lane: the four lowest, whose runs are 1 to 8
// amplitudes long, a middle one and the top one.
func laneQubits(n int) []int { return []int{0, 1, 2, 3, n / 2, n - 1} }

// BenchmarkProjectDrop measures a terminal drop on 1 and 2 lanes of a
// 12-qubit batch: each lane keeps one half of every block of the
// dropped qubit and scales it. Each iteration re-widens the batch by
// re-carving its lanes (setWidth), which costs a few stores, so no
// timer stops; with norm 1 the scale is 1 and the amplitudes stay
// finite however often the pass reruns on its own output.
func BenchmarkProjectDrop(b *testing.B) {
	const n = 12
	for _, q := range laneQubits(n) {
		for _, lanes := range []int{1, 2} {
			b.Run(fmt.Sprintf("n%d/q%d/lanes%d", n, q, lanes), func(b *testing.B) {
				batch := GetBatch(n, lanes)
				defer batch.Release()
				outcomes := make([]int, lanes)
				norms := make([]float64, lanes)
				for l := 0; l < lanes; l++ {
					batch.PushLane(randomState(n, rng.New(uint64(21+l))))
					outcomes[l] = l % 2
					norms[l] = 1
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch.ProjectDrop(q, outcomes, norms)
					batch.setWidth(n)
				}
			})
		}
	}
}

// BenchmarkEnter measures a lazy entry on 1 and 2 lanes of a batch
// widening from 11 to 12 qubits. Each iteration narrows the batch back
// by re-carving its lanes (setWidth), so no timer stops.
func BenchmarkEnter(b *testing.B) {
	const n = 12
	for _, q := range laneQubits(n) {
		for _, lanes := range []int{1, 2} {
			b.Run(fmt.Sprintf("n%d/q%d/lanes%d", n, q, lanes), func(b *testing.B) {
				batch := GetBatch(n, lanes)
				defer batch.Release()
				for l := 0; l < lanes; l++ {
					batch.PushLane(randomState(n-1, rng.New(uint64(31+l))))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch.Enter(q)
					batch.setWidth(n - 1)
				}
			})
		}
	}
}

// BenchmarkApplyDiagonal measures the diagonal fast paths the fusion pass
// routes RZ and ZZ-crosstalk steps through.
func BenchmarkApplyDiagonal(b *testing.B) {
	rz := circuit.Matrix1Q(circuit.RZ, []float64{0.37})
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("1q/q%d", n), func(b *testing.B) {
			s := randomState(n, rng.New(7))
			q := n / 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Apply1QDiag(rz[0][0], rz[1][1], q)
			}
		})
		b.Run(fmt.Sprintf("2q/q%d", n), func(b *testing.B) {
			s := randomState(n, rng.New(9))
			d := [4]complex128{1, rz[1][1], rz[1][1], 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Apply2QDiag(d, 0, n-1)
			}
		})
	}
}

// BenchmarkApply1QAntiDiag measures the anti-diagonal fast path — X/Y
// Pauli errors and the amplitude-damping jump branch, the off-diagonal
// operators a noisy trajectory applies most often.
func BenchmarkApply1QAntiDiag(b *testing.B) {
	x := circuit.Matrix1Q(circuit.X, nil)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("q%d", n), func(b *testing.B) {
			s := randomState(n, rng.New(11))
			q := n / 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Apply1QAntiDiag(x[0][1], x[1][0], q)
			}
		})
	}
}

// BenchmarkApplyMixedDiagSequence interleaves diagonal and anti-diagonal
// one-qubit kernels across the register the way a damping-heavy
// schedule does (no-jump scale, dephasing, jump branch), so the
// dispatch cost between the two fast paths is measured, not just each
// kernel in isolation.
func BenchmarkApplyMixedDiagSequence(b *testing.B) {
	rz := circuit.Matrix1Q(circuit.RZ, []float64{0.37})
	x := circuit.Matrix1Q(circuit.X, nil)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("q%d", n), func(b *testing.B) {
			s := randomState(n, rng.New(13))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := i % n
				s.Apply1QDiag(rz[0][0], rz[1][1], q)
				s.Apply1QAntiDiag(x[0][1], x[1][0], q)
				s.Apply1QDiag(rz[1][1], rz[0][0], (q+1)%n)
			}
		})
	}
}

// Frozen-kernel benchmarks: the same operations through the verbatim
// pre-SoA complex128 loops (frozen_test.go), giving go test -bench an
// in-process denominator for the SoA/AVX2 speedups — the frozen code
// lives in the test binary forever, so the baseline never goes stale.

func BenchmarkFrozenApply1Q(b *testing.B) {
	h := circuit.Matrix1Q(circuit.H, nil)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("q%d", n), func(b *testing.B) {
			f := newFrozenState(randomState(n, rng.New(3)))
			q := n / 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.apply1Q(h, q)
			}
		})
	}
}

func BenchmarkFrozenApply2Q(b *testing.B) {
	dense := denseMatrix4()
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("q%d", n), func(b *testing.B) {
			f := newFrozenState(randomState(n, rng.New(5)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.apply2Q(dense, 0, n-1)
			}
		})
	}
}

func BenchmarkFrozenApply1QAntiDiag(b *testing.B) {
	x := circuit.Matrix1Q(circuit.X, nil)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("q%d", n), func(b *testing.B) {
			f := newFrozenState(randomState(n, rng.New(11)))
			q := n / 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.apply1QAntiDiag(x[0][1], x[1][0], q)
			}
		})
	}
}

func BenchmarkFrozenApplyDiagonal(b *testing.B) {
	rz := circuit.Matrix1Q(circuit.RZ, []float64{0.37})
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("1q/q%d", n), func(b *testing.B) {
			f := newFrozenState(randomState(n, rng.New(7)))
			q := n / 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.apply1QDiag(rz[0][0], rz[1][1], q)
			}
		})
		b.Run(fmt.Sprintf("2q/q%d", n), func(b *testing.B) {
			f := newFrozenState(randomState(n, rng.New(9)))
			d := [4]complex128{1, rz[1][1], rz[1][1], 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.apply2QDiag(d, 0, n-1)
			}
		})
	}
}

// BenchmarkDampStep compares one damping step on the unfused path with
// the fused kernel, on 1, 2 and 4 lanes of a batch. The unfused step is
// the branch probabilities' population pass (KrausBranchProbs1Q), then
// the drawn diagonal branch's own sweep (Apply1QDiag); the next
// iteration's pass is the next step's populations. The fused step is
// one Batch.PopsLanes pass that applies the previous step's branch,
// left pending, and sums the populations. The branch coefficients have
// modulus 1, so repeated iterations keep the amplitudes' magnitudes and
// never reach subnormals.
func BenchmarkDampStep(b *testing.B) {
	ks := []circuit.Matrix2{{{1, 0}, {0, 0.99}}, {{0, 0}, {0, 0.14}}}
	c0, c1 := complex(0.6, 0.8), complex(0.8, -0.6)
	for _, n := range []int{6, 10, 12} {
		for _, q := range []int{0, 1, n / 2, n - 1} {
			for _, lanes := range []int{1, 2, 4} {
				batch := GetBatch(n, lanes)
				ids := make([]int, lanes)
				for l := range ids {
					ids[l] = batch.PushLane(randomState(n, rng.New(uint64(7+l))))
				}
				name := fmt.Sprintf("n%d/q%d/lanes%d", n, q, lanes)
				b.Run(name+"/unfused", func(b *testing.B) {
					var probs [2]float64
					for i := 0; i < b.N; i++ {
						for _, l := range ids {
							s := batch.Lane(l)
							s.KrausBranchProbs1Q(ks, q, probs[:])
							s.Apply1QDiag(c0, c1, q)
						}
					}
				})
				b.Run(name+"/fused", func(b *testing.B) {
					lists := make([][]Diag, lanes)
					for l := range lists {
						lists[l] = make([]Diag, 1)
						lists[l][0].Set1Q(c0, c1, q)
					}
					p0 := make([]float64, lanes)
					p1 := make([]float64, lanes)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						batch.PopsLanes(ids, lists, q, p0, p1)
					}
				})
				batch.Release()
			}
		}
	}
}
