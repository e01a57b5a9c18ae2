package statevec

import (
	"fmt"
	"math"

	"edm/internal/circuit"
	"edm/internal/pool"
)

// Batch is a batch-major SoA block of statevector lanes: `capLanes`
// n-qubit statevectors stored back to back in one pair of flat re/im
// arrays (lane k's amplitude b lives at index k*2^n + b). The batched
// replay engine restores a bucket of divergent trials into lanes and
// applies each deterministic gate once across every live lane through
// the flat kernels (flat.go) — the batch dimension is just more of the
// same unit-stride array, so the AVX2 fast paths vectorize across lanes
// for free and every amplitude sees the exact FP op sequence of a
// lane-by-lane replay (bit-identity, pinned by batch_test.go).
//
// Memory: one buffer of 2 * ceilpow2(capLanes) * 2^n float64s, i.e. the
// DESIGN.md §15 bound B·16·2^n bytes (rounded up one size class).
// Stochastic steps are per-lane: Lane(k) is a *State view aliasing the
// batch storage, so the engine runs the ordinary State methods
// (ProbabilityOne, ApplyKrausBranch1Q, Project, ...) on single lanes
// between batched deterministic runs.
type Batch struct {
	n        int // qubits per lane
	capLanes int
	live     int
	buf      []float64 // pooled; re/im carved from the two halves
	re, im   []float64 // capLanes<<n floats each
	views    []State   // preallocated lane views (buf nil)
}

// batchScratch recycles batch buffers across GetBatch/Release pairs,
// size-classed by the pow2-rounded buffer length.
var batchScratch pool.Buffers[float64]

// GetBatch returns an empty batch (no live lanes) with capacity for
// `lanes` statevectors of n qubits, its buffer drawn from a process-wide
// free list. Its lanes start n qubits wide; the first PushLane may narrow
// them, and Enter widens them again up to n. Pair with Release.
func GetBatch(n, lanes int) *Batch {
	if n < 0 || n > MaxQubits {
		panic(fmt.Sprintf("statevec: %d qubits out of range", n))
	}
	if lanes <= 0 {
		panic(fmt.Sprintf("statevec: batch of %d lanes", lanes))
	}
	size := lanes << uint(n)
	half := pool.CeilPow2(size)
	b := &Batch{n: n, capLanes: lanes}
	b.buf = batchScratch.Get(2 * half)
	b.re = b.buf[:size:size]
	b.im = b.buf[half : half+size : half+size]
	b.views = make([]State, lanes)
	b.carveViews()
	return b
}

// setWidth re-carves the batch at n qubits per lane; the storage must
// hold every lane at that width.
func (b *Batch) setWidth(n int) {
	if n < 0 || b.capLanes<<uint(n) > len(b.re) {
		panic(fmt.Sprintf("statevec: %d-qubit lanes exceed the batch's storage", n))
	}
	b.n = n
	b.carveViews()
}

// carveViews points every lane view at its 2^n-amplitude slot of the
// flat storage.
func (b *Batch) carveViews() {
	for i := range b.views {
		lo, hi := i<<uint(b.n), (i+1)<<uint(b.n)
		b.views[i] = State{n: b.n, re: b.re[lo:hi:hi], im: b.im[lo:hi:hi]}
	}
}

// Release returns the batch's buffer to the free list. Neither the
// batch nor any Lane view may be used afterwards.
func (b *Batch) Release() {
	if b == nil || b.buf == nil {
		return
	}
	batchScratch.Put(b.buf)
	b.buf, b.re, b.im, b.views = nil, nil, nil, nil
	b.live = 0
}

// N returns the number of qubits per lane.
func (b *Batch) N() int { return b.n }

// Cap returns the lane capacity.
func (b *Batch) Cap() int { return b.capLanes }

// Live returns the number of live lanes.
func (b *Batch) Live() int { return b.live }

// Lane returns a *State view of live lane i, aliasing the batch
// storage. The view stays valid until Release; PutState on it is a
// no-op.
func (b *Batch) Lane(i int) *State {
	if i < 0 || i >= b.live {
		panic(fmt.Sprintf("statevec: lane %d out of range [0,%d)", i, b.live))
	}
	return &b.views[i]
}

// PushLane appends a live lane initialized from src (nil means the
// initial state |0...0>) and returns its index. The first lane pushed
// into an empty batch sets the batch's width to src's, which may be any
// width up to the one the batch was sized for; later lanes must match
// it. Panics when the batch is full; callers size the batch before
// restoring.
func (b *Batch) PushLane(src *State) int {
	if b.live >= b.capLanes {
		panic("statevec: batch lane capacity exceeded")
	}
	if b.live == 0 && src != nil && src.n != b.n {
		b.setWidth(src.n)
	}
	i := b.live
	b.live++
	lane := &b.views[i]
	if src == nil {
		lane.Reset()
	} else {
		lane.CopyFrom(src)
	}
	return i
}

// CloneLane appends a live lane copied from live lane i and returns the
// new lane's index. The engine uses it when a group of trials splits at
// a stochastic step: the minority branches get fresh lanes cloned from
// the still-unmutated group lane.
func (b *Batch) CloneLane(i int) int {
	return b.PushLane(b.Lane(i))
}

// flat returns the live prefix of the batch as one flat re/im pair.
// Every block period a flat kernel uses (2*bit, 2*hi) divides the lane
// stride 2^n, so a flat pass over live<<n amplitudes is exactly `live`
// independent per-lane applications.
func (b *Batch) flat() (re, im []float64) {
	size := b.live << uint(b.n)
	return b.re[:size:size], b.im[:size:size]
}

func (b *Batch) checkQubit(q int) {
	if q < 0 || q >= b.n {
		panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, b.n))
	}
}

// Apply1QBatch applies a one-qubit unitary to qubit q of every live
// lane, with the same diagonal/anti-diagonal routing as State.Apply1Q.
func (b *Batch) Apply1QBatch(m circuit.Matrix2, q int) {
	b.checkQubit(q)
	if m.IsDiagonal() {
		b.Apply1QDiagBatch(m[0][0], m[1][1], q)
		return
	}
	if m.IsAntiDiagonal() {
		b.Apply1QAntiDiagBatch(m[0][1], m[1][0], q)
		return
	}
	mm := [8]float64{
		real(m[0][0]), imag(m[0][0]), real(m[0][1]), imag(m[0][1]),
		real(m[1][0]), imag(m[1][0]), real(m[1][1]), imag(m[1][1]),
	}
	re, im := b.flat()
	flat1QGeneral(re, im, 1<<uint(q), &mm)
}

// Apply1QDiagBatch applies diag(d0, d1) to qubit q of every live lane.
func (b *Batch) Apply1QDiagBatch(d0, d1 complex128, q int) {
	b.checkQubit(q)
	re, im := b.flat()
	flat1QDiag(re, im, 1<<uint(q), d0, d1)
}

// Apply1QAntiDiagBatch applies [[0, a01], [a10, 0]] to qubit q of every
// live lane.
func (b *Batch) Apply1QAntiDiagBatch(a01, a10 complex128, q int) {
	b.checkQubit(q)
	c := [4]float64{real(a01), imag(a01), real(a10), imag(a10)}
	re, im := b.flat()
	flat1QAnti(re, im, 1<<uint(q), &c)
}

// Apply2QBatch applies a two-qubit unitary on (q0, q1) of every live
// lane, with the same diagonal routing as State.Apply2Q.
func (b *Batch) Apply2QBatch(m circuit.Matrix4, q0, q1 int) {
	b.checkQubit(q0)
	b.checkQubit(q1)
	if q0 == q1 {
		panic("statevec: Apply2QBatch with identical qubits")
	}
	if d, ok := m.DiagonalOf(); ok {
		b.Apply2QDiagBatch(d, q0, q1)
		return
	}
	mm := mat4SoA(m)
	re, im := b.flat()
	flat2QGeneral(re, im, 1<<uint(q0), 1<<uint(q1), &mm)
}

// Apply2QDiagBatch applies diag(d) on (q0, q1) of every live lane.
func (b *Batch) Apply2QDiagBatch(d [4]complex128, q0, q1 int) {
	b.checkQubit(q0)
	b.checkQubit(q1)
	if q0 == q1 {
		panic("statevec: Apply2QDiagBatch with identical qubits")
	}
	re, im := b.flat()
	flat2QDiag(re, im, 1<<uint(q0), 1<<uint(q1), d)
}

// Apply2QPermBatch applies a permutation-with-phases unitary on
// (q0, q1) of every live lane.
func (b *Batch) Apply2QPermBatch(p Perm4, q0, q1 int) {
	b.checkQubit(q0)
	b.checkQubit(q1)
	if q0 == q1 {
		panic("statevec: Apply2QPermBatch with identical qubits")
	}
	c := [8]float64{
		real(p.Coef[0]), imag(p.Coef[0]), real(p.Coef[1]), imag(p.Coef[1]),
		real(p.Coef[2]), imag(p.Coef[2]), real(p.Coef[3]), imag(p.Coef[3]),
	}
	re, im := b.flat()
	flat2QPerm(re, im, 1<<uint(q0), 1<<uint(q1), &p.Src, &c)
}

// ProjectDrop collapses qubit q of every live lane i onto outcomes[i]
// and drops q from every lane, each lane exactly as State.ProjectDrop
// would. norms[i] is lane i's kept-half population: the p0 or p1 the
// population pass that drew its outcome returned (PopsLanes), which is
// the norm State.ProjectDrop sums, so no norm pass runs (State.Collapse).
// The lanes stay back to back at the new stride 2^(n-1), so the flat
// kernels keep covering every live lane in one pass. Lanes are
// compacted in ascending order: lane i's kept half lands at or below its
// own old slot and below lane i+1's, so the pass reads every amplitude
// before anything overwrites it.
func (b *Batch) ProjectDrop(q int, outcomes []int, norms []float64) {
	b.checkQubit(q)
	if len(outcomes) != b.live || len(norms) != b.live {
		panic(fmt.Sprintf("statevec: ProjectDrop with %d outcomes and %d norms for %d lanes", len(outcomes), len(norms), b.live))
	}
	half := 1 << uint(b.n-1)
	for i, k := range outcomes {
		if k != 0 && k != 1 {
			panic(fmt.Sprintf("statevec: ProjectDrop with outcome %d", k))
		}
		lo, hi := i*half, (i+1)*half
		if norms[i] <= 0 {
			panic("statevec: projection onto zero-probability outcome")
		}
		gatherScale(b.re[lo:hi:hi], b.im[lo:hi:hi], b.views[i].re, b.views[i].im, 1<<uint(q), k, 1/math.Sqrt(norms[i]))
	}
	b.setWidth(b.n - 1)
}

// Enter inserts a qubit in |0> at index q of every live lane, each lane
// exactly as State.Enter would. The lanes widen in place and stay back
// to back at the new stride 2^(n+1), so the batch must have been sized
// for the wider lanes: GetBatch at the widest register the lanes will
// reach, then PushLane a narrower first lane.
func (b *Batch) Enter(q int) {
	if q < 0 || q > b.n {
		panic(fmt.Sprintf("statevec: Enter at %d outside [0,%d]", q, b.n))
	}
	size := b.live << uint(b.n)
	b.setWidth(b.n + 1)
	enterSpread(b.re, b.im, size, 1<<uint(q))
}
