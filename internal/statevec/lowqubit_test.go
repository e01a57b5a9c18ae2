package statevec

import (
	"fmt"
	"testing"

	"edm/internal/rng"
)

// Exhaustive layout sweeps for the kernels whose role streams are
// shorter than one vector: dense two-qubit gates on every ordered qubit
// pair, and terminal drops and lazy entries on qubits 0-3. Random
// operation sequences (TestKernelsBitIdenticalToFrozen) reach a layout
// only by chance; these visit each one on purpose, on single states and
// on batches of 1-5 lanes, whose odd lane counts leave a flat array
// that is not a multiple of a kernel's step.

// TestApply2QEveryPairBitIdentical applies a dense 4x4 on every ordered
// qubit pair at widths 2-9 through State.Apply2Q and Batch.Apply2QBatch
// (1-5 lanes) and requires every amplitude to equal the frozen
// complex128 loop's in Float64bits.
func TestApply2QEveryPairBitIdentical(t *testing.T) {
	forKernelPaths(t, func(t *testing.T) {
		for n := 2; n <= 9; n++ {
			r := rng.New(uint64(5100 + n))
			for q0 := 0; q0 < n; q0++ {
				for q1 := 0; q1 < n; q1++ {
					if q0 == q1 {
						continue
					}
					m := randomDense4(r)
					tag := fmt.Sprintf("n=%d pair=(%d,%d)", n, q0, q1)
					s := signedZeroState(n, r)
					f := newFrozenState(s)
					s.Apply2Q(m, q0, q1)
					f.apply2Q(m, q0, q1)
					compareBits(t, tag+" state", s, f)
					for lanes := 1; lanes <= 5; lanes++ {
						b := GetBatch(n, lanes)
						frozen := make([]*frozenState, lanes)
						for l := range frozen {
							src := signedZeroState(n, r)
							b.PushLane(src)
							frozen[l] = newFrozenState(src)
							frozen[l].apply2Q(m, q0, q1)
						}
						b.Apply2QBatch(m, q0, q1)
						for l, f := range frozen {
							compareBits(t, fmt.Sprintf("%s lanes=%d lane=%d", tag, lanes, l), b.Lane(l), f)
						}
						b.Release()
					}
				}
			}
		}
	})
}

// TestProjectDropLowQubitsBitIdentical drops qubits 0-3 at widths 1-9
// from batches of 1-5 lanes whose outcomes differ lane to lane, and
// from single states through State.Collapse, against the full-register
// oracle: Project, then the kept half gathered in ascending order.
func TestProjectDropLowQubitsBitIdentical(t *testing.T) {
	forKernelPaths(t, func(t *testing.T) {
		for n := 1; n <= 9; n++ {
			r := rng.New(uint64(5200 + n))
			for q := 0; q < min(n, 4); q++ {
				for lanes := 1; lanes <= 5; lanes++ {
					tag := fmt.Sprintf("n=%d q=%d lanes=%d", n, q, lanes)
					b := GetBatch(n, lanes)
					outcomes := make([]int, lanes)
					norms := make([]float64, lanes)
					want := make([][2][]float64, lanes)
					for l := 0; l < lanes; l++ {
						outcomes[l] = (l + q) % 2
						var src *State
						for norms[l] <= 0 { // a narrow state may keep only zeros
							src = signedZeroState(n, r)
							p0, p1 := src.PopsAfter(nil, q)
							norms[l] = [2]float64{p0, p1}[outcomes[l]]
						}
						full := src.Clone()
						full.Project(q, outcomes[l])
						re, im := gatherKept(full, []dropped{{q, outcomes[l]}})
						want[l] = [2][]float64{re, im}
						b.PushLane(src)

						s := GetState(n)
						s.CopyFrom(src)
						s.Collapse(q, outcomes[l], norms[l], true)
						compareKept(t, fmt.Sprintf("%s state %d", tag, l), s, re, im)
						PutState(s)
					}
					b.ProjectDrop(q, outcomes, norms)
					for l, w := range want {
						compareKept(t, fmt.Sprintf("%s lane %d", tag, l), b.Lane(l), w[0], w[1])
					}
					b.Release()
				}
			}
		}
	})
}

// TestEnterLowQubitsBitIdentical enters a qubit at indices 0-3 into
// lanes of widths 0-8 (so 1-9 after entry), on batches of 1-5 lanes and
// single states, against the index-arithmetic oracle withZeroQubit.
func TestEnterLowQubitsBitIdentical(t *testing.T) {
	forKernelPaths(t, func(t *testing.T) {
		for n := 0; n <= 8; n++ {
			r := rng.New(uint64(5300 + n))
			for q := 0; q <= min(n, 3); q++ {
				for lanes := 1; lanes <= 5; lanes++ {
					tag := fmt.Sprintf("n=%d q=%d lanes=%d", n, q, lanes)
					b := GetBatch(n+1, lanes)
					want := make([][2][]float64, lanes)
					for l := 0; l < lanes; l++ {
						src := signedZeroState(n, r)
						re, im := withZeroQubit(src, q)
						want[l] = [2][]float64{re, im}
						b.PushLane(src)

						s := GetState(n + 1)
						s.CopyFrom(src)
						s.Enter(q)
						compareKept(t, fmt.Sprintf("%s state %d", tag, l), s, re, im)
						PutState(s)
					}
					b.Enter(q)
					for l, w := range want {
						compareKept(t, fmt.Sprintf("%s lane %d", tag, l), b.Lane(l), w[0], w[1])
					}
					b.Release()
				}
			}
		}
	})
}
