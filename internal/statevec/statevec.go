// Package statevec implements a pure-state (statevector) quantum
// simulator. It is the workhorse engine of this repository: the noisy
// backend runs one Monte-Carlo *trajectory* per trial by interleaving
// unitary gates with stochastically sampled Kraus operators, exactly
// mirroring the paper's methodology of running a program for thousands of
// trials and logging one outcome per trial.
//
// Amplitude indexing: basis state index b has qubit q in state (b>>q)&1,
// i.e. qubit 0 is the least-significant bit.
//
// Layout: amplitudes are stored structure-of-arrays — one []float64 of
// real parts and one of imaginary parts, carved out of a single backing
// buffer — rather than as []complex128. The hot kernels (kernels.go)
// stream contiguous float64 runs, which keeps operands in registers,
// drops the complex128 shuffle traffic, and gives the amd64 AVX2 fast
// paths (kernels_amd64.s) unit-stride vector loads. Every kernel
// replicates the float operations of the frozen complex128 loops
// operation for operation, so amplitudes are bit-identical to the
// pre-SoA engine (TestKernelsBitIdenticalToFrozen pins this against the
// frozen loops kept in frozen_test.go).
package statevec

import (
	"fmt"
	"math"
	"math/bits"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/pool"
	"edm/internal/rng"
)

// MaxQubits bounds the register size (memory is 16 bytes * 2^n).
const MaxQubits = 24

// State is the statevector of an n-qubit register. re[b] and im[b] are
// the real and imaginary parts of the amplitude of basis state b; for an
// owned state both slices alias one backing buffer (buf) so snapshot
// copies and pooling work on a single allocation. A Batch lane view
// (Batch.Lane) has buf nil and re/im aliasing the batch's storage; every
// State method works on re/im only, so views and owned states are
// interchangeable.
type State struct {
	n   int
	re  []float64
	im  []float64
	buf []float64 // owned states: re = buf[:2^n], im = buf[h:h+2^n] with h = len(buf)/2; nil for lane views
}

// split carves the re/im views out of a backing buffer of 2*2^n floats.
func (s *State) split(n int, buf []float64) {
	s.buf = buf
	s.carve(n)
}

// carve points re/im at n-qubit views of the owned buffer: re at its
// start, im at its midpoint. ProjectDrop narrows an owned state in place
// in this layout, and Reset and CopyFrom re-carve it, so one buffer
// serves every width up to the one it was allocated for.
func (s *State) carve(n int) {
	size := 1 << uint(n)
	h := len(s.buf) / 2
	if size > h {
		panic(fmt.Sprintf("statevec: %d qubits exceed a %d-amplitude buffer", n, h))
	}
	s.n = n
	s.re = s.buf[:size:size]
	s.im = s.buf[h : h+size : h+size]
}

// NewState returns the all-zeros computational basis state |0...0>.
func NewState(n int) *State {
	if n < 0 || n > MaxQubits {
		panic(fmt.Sprintf("statevec: %d qubits out of range", n))
	}
	s := &State{}
	s.split(n, make([]float64, 2<<uint(n)))
	s.re[0] = 1
	return s
}

// scratch recycles amplitude buffers across GetState/PutState pairs.
// Stripe workers in the backend take a scratch state per stripe and
// return it when the stripe ends, so wide campaigns reuse a few buffers
// instead of allocating one statevector per (run x worker).
var scratch pool.Buffers[float64]

// GetState returns a |0...0> state of n qubits whose amplitude buffer
// comes from a process-wide free list. Pair with PutState when the
// state is no longer referenced.
func GetState(n int) *State {
	if n < 0 || n > MaxQubits {
		panic(fmt.Sprintf("statevec: %d qubits out of range", n))
	}
	s := &State{}
	s.split(n, scratch.Get(2<<uint(n)))
	s.Reset()
	return s
}

// PutState returns a GetState state's buffer to the free list. The
// state must not be used afterwards. PutState(nil) is a no-op, as is
// PutState of a Batch lane view (the batch owns that storage).
func PutState(s *State) {
	if s == nil || s.buf == nil {
		return
	}
	scratch.Put(s.buf)
	s.buf, s.re, s.im = nil, nil, nil
}

// NewBasisState returns the computational basis state |b>.
func NewBasisState(b bitstr.BitString) *State {
	s := NewState(b.Len())
	s.re[0] = 0
	s.re[b.Uint64()] = 1
	return s
}

// N returns the number of qubits.
func (s *State) N() int { return s.n }

// Reset returns the state to |0...0> in place, so one allocation can be
// reused across many Monte-Carlo trajectories. An owned state narrowed by
// ProjectDrop gets back the full width its buffer was allocated for.
func (s *State) Reset() {
	if s.buf != nil {
		s.carve(bits.TrailingZeros(uint(len(s.buf) / 2)))
	}
	for i := range s.re {
		s.re[i] = 0
	}
	for i := range s.im {
		s.im[i] = 0
	}
	s.re[0] = 1
}

// Amplitude returns the amplitude of basis state index b.
func (s *State) Amplitude(b uint64) complex128 {
	return complex(s.re[b], s.im[b])
}

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	c := &State{}
	c.split(s.n, make([]float64, 2*len(s.re)))
	copy(c.re, s.re)
	copy(c.im, s.im)
	return c
}

// CopyFrom overwrites s with a bit-identical copy of src, reusing s's
// amplitude buffer. It is the restore half of the snapshot API: the
// backend's trajectory engine clones checkpoint states once per program
// and restores diverging trials into a reused scratch state with no
// allocation. An owned s takes src's width if its buffer is large enough
// (checkpoints taken after ProjectDrop are narrower than the scratch); a
// Batch lane view must already match it. The two states must not alias.
func (s *State) CopyFrom(src *State) {
	if s.n != src.n {
		if s.buf == nil {
			panic(fmt.Sprintf("statevec: CopyFrom size mismatch (%d vs %d qubits)", s.n, src.n))
		}
		s.carve(src.n)
	}
	copy(s.re, src.re)
	copy(s.im, src.im)
}

// Norm returns the 2-norm of the statevector (1 for a valid state).
func (s *State) Norm() float64 {
	return math.Sqrt(s.population())
}

// population returns the sum of |a_b|^2 over the register in ascending
// b — the chain every order-pinned reduction here (ProbabilityOne, the
// Kraus populations, the projection norm) runs over the amplitudes it
// visits, term for term.
func (s *State) population() float64 {
	var sum float64
	for i, ar := range s.re {
		ai := s.im[i]
		sum += ar*ar + ai*ai
	}
	return sum
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, s.n))
	}
}

// Apply1Q applies a one-qubit unitary to qubit q. Diagonal and
// anti-diagonal matrices (whose zero entries are exact) are routed to the
// specialized kernels; the results are bit-identical to the general loop
// because multiplying by an exact complex zero contributes exactly zero.
func (s *State) Apply1Q(m circuit.Matrix2, q int) {
	s.checkQubit(q)
	if m.IsDiagonal() {
		s.Apply1QDiag(m[0][0], m[1][1], q)
		return
	}
	if m.IsAntiDiagonal() {
		s.Apply1QAntiDiag(m[0][1], m[1][0], q)
		return
	}
	mm := [8]float64{
		real(m[0][0]), imag(m[0][0]), real(m[0][1]), imag(m[0][1]),
		real(m[1][0]), imag(m[1][0]), real(m[1][1]), imag(m[1][1]),
	}
	flat1QGeneral(s.re, s.im, 1<<uint(q), &mm)
}

// Apply1QDiag applies diag(d0, d1) to qubit q: amplitudes with the qubit
// clear scale by d0, amplitudes with it set scale by d1.
func (s *State) Apply1QDiag(d0, d1 complex128, q int) {
	s.checkQubit(q)
	flat1QDiag(s.re, s.im, 1<<uint(q), d0, d1)
}

// Apply1QAntiDiag applies the X-like matrix [[0, a01], [a10, 0]] to qubit
// q: a scaled swap of each amplitude pair.
func (s *State) Apply1QAntiDiag(a01, a10 complex128, q int) {
	s.checkQubit(q)
	c := [4]float64{real(a01), imag(a01), real(a10), imag(a10)}
	flat1QAnti(s.re, s.im, 1<<uint(q), &c)
}

// mat4SoA flattens a 4x4 complex matrix row-major into interleaved
// (real, imag) float pairs: entry (r, c) lives at mm[(r*4+c)*2, +1].
func mat4SoA(m circuit.Matrix4) [32]float64 {
	var mm [32]float64
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			mm[(r*4+c)*2] = real(m[r][c])
			mm[(r*4+c)*2+1] = imag(m[r][c])
		}
	}
	return mm
}

// Apply2Q applies a two-qubit unitary to the ordered qubit pair (q0, q1),
// where q0 is the low bit of the 4x4 matrix basis (the control for CX).
// Exactly diagonal matrices are routed to Apply2QDiag.
func (s *State) Apply2Q(m circuit.Matrix4, q0, q1 int) {
	s.checkQubit(q0)
	s.checkQubit(q1)
	if q0 == q1 {
		panic("statevec: Apply2Q with identical qubits")
	}
	if d, ok := m.DiagonalOf(); ok {
		s.Apply2QDiag(d, q0, q1)
		return
	}
	mm := mat4SoA(m)
	flat2QGeneral(s.re, s.im, 1<<uint(q0), 1<<uint(q1), &mm)
}

// Apply2QDiag applies diag(d) on the ordered pair (q0, q1), where the
// matrix basis index is (bit q0) + 2*(bit q1). ZZ interactions — the
// dominant noise-injected two-qubit step — are diagonal, so this kernel
// carries most of the crosstalk load at 4 multiplies per base index.
func (s *State) Apply2QDiag(d [4]complex128, q0, q1 int) {
	s.checkQubit(q0)
	s.checkQubit(q1)
	if q0 == q1 {
		panic("statevec: Apply2QDiag with identical qubits")
	}
	flat2QDiag(s.re, s.im, 1<<uint(q0), 1<<uint(q1), d)
}

// Perm4 is a two-qubit permutation-with-phases unitary: row r of the
// matrix has its single nonzero entry Coef[r] in column Src[r]. CX, CZ,
// SWAP and their phase products all have this shape.
type Perm4 struct {
	Src  [4]uint8
	Coef [4]complex128
}

// ClassifyPerm4 reports whether m is a permutation-with-phases matrix
// (exactly one nonzero entry per row and per column) and returns its
// compact form. Zero tests are exact, mirroring the diagonal fast paths.
func ClassifyPerm4(m circuit.Matrix4) (Perm4, bool) {
	var p Perm4
	var colUsed [4]bool
	for r := 0; r < 4; r++ {
		found := -1
		for c := 0; c < 4; c++ {
			if m[r][c] != 0 {
				if found >= 0 {
					return Perm4{}, false
				}
				found = c
			}
		}
		if found < 0 || colUsed[found] {
			return Perm4{}, false
		}
		colUsed[found] = true
		p.Src[r] = uint8(found)
		p.Coef[r] = m[r][found]
	}
	return p, true
}

// Apply2QPerm applies a permutation-with-phases unitary on (q0, q1):
// out[idx[r]] = Coef[r] * in[idx[Src[r]]], one multiply per amplitude.
func (s *State) Apply2QPerm(p Perm4, q0, q1 int) {
	s.checkQubit(q0)
	s.checkQubit(q1)
	if q0 == q1 {
		panic("statevec: Apply2QPerm with identical qubits")
	}
	c := [8]float64{
		real(p.Coef[0]), imag(p.Coef[0]), real(p.Coef[1]), imag(p.Coef[1]),
		real(p.Coef[2]), imag(p.Coef[2]), real(p.Coef[3]), imag(p.Coef[3]),
	}
	flat2QPerm(s.re, s.im, 1<<uint(q0), 1<<uint(q1), &p.Src, &c)
}

// ApplyOp applies a unitary circuit operation. It panics on Measure or
// Barrier (callers handle those explicitly).
func (s *State) ApplyOp(op circuit.Op) {
	switch {
	case op.Kind == circuit.Barrier || op.Kind == circuit.Measure:
		panic(fmt.Sprintf("statevec: ApplyOp on non-unitary %v", op.Kind))
	case op.Kind.IsTwoQubit():
		s.Apply2Q(circuit.Matrix2Q(op.Kind), op.Qubits[0], op.Qubits[1])
	default:
		s.Apply1Q(circuit.Matrix1Q(op.Kind, op.Params), op.Qubits[0])
	}
}

// ProbabilityOne returns the probability that measuring qubit q yields 1.
// The summation order matches the frozen complex128 loop exactly (block
// by block, index-ascending), so thresholds recorded by the trajectory
// engine's dominant-path builder are bit-stable across engines.
func (s *State) ProbabilityOne(q int) float64 {
	s.checkQubit(q)
	bit := 1 << uint(q)
	n := len(s.re)
	var p float64
	for blk := bit; blk < n; blk += bit << 1 {
		re := s.re[blk : blk+bit : blk+bit]
		im := s.im[blk : blk+bit : blk+bit]
		for i, ar := range re {
			ai := im[i]
			p += ar*ar + ai*ai
		}
	}
	return p
}

// MeasureQubit projectively measures qubit q, collapsing the state, and
// returns the observed bit.
func (s *State) MeasureQubit(q int, r *rng.RNG) int {
	p1 := s.ProbabilityOne(q)
	outcome := 0
	if r.Float64() < p1 {
		outcome = 1
	}
	s.projectQubit(q, outcome)
	return outcome
}

// Project collapses qubit q onto the given outcome without drawing a
// sample — exactly the state update MeasureQubit performs after its
// draw. Callers that decide the outcome externally (the trajectory
// engine's dominant-path builder) get a state bit-identical to a
// MeasureQubit call whose draw produced the same outcome. It panics if
// the outcome has zero probability.
func (s *State) Project(q, outcome int) {
	s.checkQubit(q)
	if outcome != 0 && outcome != 1 {
		panic(fmt.Sprintf("statevec: Project with outcome %d", outcome))
	}
	s.projectQubit(q, outcome)
}

// projectQubit zeroes the amplitudes inconsistent with qubit q being in
// the given state and renormalizes. The scale pass spells out the full
// complex multiply by (scale + 0i) — including the multiply-by-zero
// terms — so zero signs stay bit-identical to the frozen loop.
func (s *State) projectQubit(q, outcome int) {
	bit := 1 << uint(q)
	n := len(s.re)
	var norm float64
	// Zero the discarded half-blocks (range-clear loops compile to
	// memclr) and accumulate the kept amplitudes' norm. The kept indices
	// are visited in the same ascending order as a single whole-array
	// pass, so the reduction value is bit-identical to the frozen loop.
	for blk := 0; blk < n; blk += bit << 1 {
		keep, drop := blk+bit, blk
		if outcome == 0 {
			keep, drop = blk, blk+bit
		}
		dropR := s.re[drop : drop+bit]
		for i := range dropR {
			dropR[i] = 0
		}
		dropI := s.im[drop : drop+bit]
		for i := range dropI {
			dropI[i] = 0
		}
		keepR := s.re[keep : keep+bit : keep+bit]
		keepI := s.im[keep : keep+bit : keep+bit]
		for i, ar := range keepR {
			ai := keepI[i]
			norm += ar*ar + ai*ai
		}
	}
	if norm <= 0 {
		panic("statevec: projection onto zero-probability outcome")
	}
	// Renormalization is a complex scale by (1/sqrt(norm) + 0i): cscaleRun
	// computes re' = ar*scale - ai*0, im' = ar*0 + ai*scale — the frozen
	// loop's expressions, zero signs included — through the shared kernel.
	cscaleRun(s.re, s.im, 1/math.Sqrt(norm), 0)
}

// ProjectDrop collapses qubit q onto the given outcome and removes q
// from the register: the amplitudes with qubit q == outcome move down
// into an (n-1)-qubit state, the qubits above q each shifting down one
// index. Every kept amplitude is bit-identical to what Project leaves at
// its old index — the norm sums the same amplitudes in the same order
// and the renormalization is the same scale — and the amplitudes it
// omits are Project's exact zeros, so a caller that never touches q
// again computes the same bits on half the register. An owned state
// keeps its buffer (Reset and CopyFrom widen it again); Batch lanes drop
// together through Batch.ProjectDrop, so a lane view panics here.
func (s *State) ProjectDrop(q, outcome int) {
	s.checkQubit(q)
	if outcome != 0 && outcome != 1 {
		panic(fmt.Sprintf("statevec: ProjectDrop with outcome %d", outcome))
	}
	if s.buf == nil {
		panic("statevec: ProjectDrop on a batch lane view")
	}
	projectDrop(s.re, s.im, s.re, s.im, 1<<uint(q), outcome)
	s.carve(s.n - 1)
}

// projectDrop gathers the amplitudes of one register (srcR/srcI) whose
// `bit` equals outcome into dstR/dstI, half as long, and renormalizes
// them: projectQubit's norm pass and scale on the kept half alone. dst
// may alias the start of src — every kept amplitude moves to an index at
// or below its own, and the ascending pass reads each one before any
// write lands on it.
func projectDrop(dstR, dstI, srcR, srcI []float64, bit, outcome int) {
	var norm float64
	j := 0
	for blk := outcome * bit; blk < len(srcR); blk += bit << 1 {
		keepR := srcR[blk : blk+bit : blk+bit]
		keepI := srcI[blk : blk+bit : blk+bit]
		outR := dstR[j : j+bit : j+bit]
		outI := dstI[j : j+bit : j+bit]
		for i, ar := range keepR {
			ai := keepI[i]
			norm += ar*ar + ai*ai
			outR[i] = ar
			outI[i] = ai
		}
		j += bit
	}
	if norm <= 0 {
		panic("statevec: projection onto zero-probability outcome")
	}
	cscaleRun(dstR[:j], dstI[:j], 1/math.Sqrt(norm), 0)
}

// ApplyKraus1Q applies a one-qubit quantum channel given by Kraus
// operators ks to qubit q by sampling one trajectory branch: branch i is
// chosen with probability ||K_i psi||^2 and the state is renormalized.
// It returns the index of the chosen branch. The operators must satisfy
// sum K_i^dagger K_i = I for the probabilities to sum to one; small
// numerical slack is tolerated.
//
// Channels whose operators are all diagonal or anti-diagonal — damping,
// dephasing, and Pauli channels, i.e. every channel the noise model
// samples per trial — take a fast path: branch probabilities follow from
// the qubit's populations alone (one cheap pass instead of a full
// matrix-action scan), and the chosen operator is applied pre-scaled so
// renormalization costs no extra pass.
func (s *State) ApplyKraus1Q(ks []circuit.Matrix2, q int, r *rng.RNG) int {
	s.checkQubit(q)
	if len(ks) == 0 {
		panic("statevec: empty Kraus set")
	}
	if len(ks) == 1 {
		// Deterministic channel; still renormalize in case K is not unitary.
		s.Apply1Q(ks[0], q)
		n := s.Norm()
		if n <= 0 {
			panic("statevec: Kraus operator annihilated the state")
		}
		s.Scale(complex(1/n, 0))
		return 0
	}
	var pbuf [8]float64
	var probs []float64
	if len(ks) <= len(pbuf) {
		probs = pbuf[:len(ks)]
	} else {
		probs = make([]float64, len(ks))
	}
	s.KrausBranchProbs1Q(ks, q, probs)
	choice := r.Choose(probs)
	s.ApplyKrausBranch1Q(ks, q, choice, probs[choice])
	return choice
}

// KrausBranchProbs1Q fills probs (len(ks) entries) with the trajectory
// branch probabilities ||K_i psi||^2 of the channel on qubit q, computed
// exactly — operation for operation — as ApplyKraus1Q computes them
// before its draw. The trajectory engine's dominant-path builder uses it
// to record state-dependent branch thresholds that are bit-identical to
// the ones a live trial would compare its uniform against.
//
// Sets whose operators are each diagonal or anti-diagonal — damping,
// dephasing, and Pauli channels, i.e. every channel the noise model
// samples per trial — take a fast path: for such a set the branch
// probabilities depend only on the target qubit's populations p0, p1:
//
//	diagonal K:      ||K psi||^2 = |k00|^2 p0 + |k11|^2 p1
//	anti-diagonal K: ||K psi||^2 = |k01|^2 p1 + |k10|^2 p0
//
// so one population pass replaces the per-operator matrix-action scan.
func (s *State) KrausBranchProbs1Q(ks []circuit.Matrix2, q int, probs []float64) {
	s.checkQubit(q)
	if len(probs) != len(ks) {
		panic("statevec: KrausBranchProbs1Q buffer size mismatch")
	}
	bit := 1 << uint(q)
	n := len(s.re)
	if krausDiagLike(ks) {
		var p0, p1 float64
		for blk := 0; blk < n; blk += bit << 1 {
			loR := s.re[blk : blk+bit : blk+bit]
			loI := s.im[blk : blk+bit : blk+bit]
			hiR := s.re[blk+bit : blk+(bit<<1) : blk+(bit<<1)]
			hiI := s.im[blk+bit : blk+(bit<<1) : blk+(bit<<1)]
			for i, a0r := range loR {
				a0i := loI[i]
				a1r := hiR[i]
				a1i := hiI[i]
				p0 += a0r*a0r + a0i*a0i
				p1 += a1r*a1r + a1i*a1i
			}
		}
		krausPopProbs(ks, p0, p1, probs)
		return
	}
	// Branch probability p_i = sum over basis pairs of |K_i acting on the
	// (a0, a1) sub-vector|^2.
	for i := range probs {
		probs[i] = 0
	}
	for blk := 0; blk < n; blk += bit << 1 {
		loR := s.re[blk : blk+bit : blk+bit]
		loI := s.im[blk : blk+bit : blk+bit]
		hiR := s.re[blk+bit : blk+(bit<<1) : blk+(bit<<1)]
		hiI := s.im[blk+bit : blk+(bit<<1) : blk+(bit<<1)]
		for j, a0r := range loR {
			a0i := loI[j]
			a1r := hiR[j]
			a1i := hiI[j]
			for i, k := range ks {
				k00r, k00i := real(k[0][0]), imag(k[0][0])
				k01r, k01i := real(k[0][1]), imag(k[0][1])
				k10r, k10i := real(k[1][0]), imag(k[1][0])
				k11r, k11i := real(k[1][1]), imag(k[1][1])
				n0r := (k00r*a0r - k00i*a0i) + (k01r*a1r - k01i*a1i)
				n0i := (k00r*a0i + k00i*a0r) + (k01r*a1i + k01i*a1r)
				n1r := (k10r*a0r - k10i*a0i) + (k11r*a1r - k11i*a1i)
				n1i := (k10r*a0i + k10i*a0r) + (k11r*a1i + k11i*a1r)
				probs[i] += n0r*n0r + n0i*n0i +
					n1r*n1r + n1i*n1i
			}
		}
	}
}

// ApplyKrausBranch1Q applies branch `choice` of the channel, pre-scaled
// by 1/sqrt(p) where p is that branch's probability (as returned by
// KrausBranchProbs1Q), so the apply and the renormalization are one
// pass. It is the post-draw half of ApplyKraus1Q and performs the same
// kernel dispatch: diagonal and anti-diagonal operators (exact zero
// tests) go through the specialized kernels.
func (s *State) ApplyKrausBranch1Q(ks []circuit.Matrix2, q, choice int, p float64) {
	s.checkQubit(q)
	sq := math.Sqrt(p)
	if sq <= 0 {
		panic("statevec: chose zero-probability Kraus branch")
	}
	inv := complex(1/sq, 0)
	k := ks[choice]
	if k.IsDiagonal() {
		s.Apply1QDiag(k[0][0]*inv, k[1][1]*inv, q)
		return
	}
	if k.IsAntiDiagonal() {
		s.Apply1QAntiDiag(k[0][1]*inv, k[1][0]*inv, q)
		return
	}
	s.Apply1Q(circuit.Matrix2{
		{k[0][0] * inv, k[0][1] * inv},
		{k[1][0] * inv, k[1][1] * inv},
	}, q)
}

// krausPopProbs fills probs with the branch probabilities of a
// diagonal-like Kraus set from the target qubit's populations p0, p1.
func krausPopProbs(ks []circuit.Matrix2, p0, p1 float64, probs []float64) {
	for i, k := range ks {
		if k.IsDiagonal() {
			probs[i] = abs2(k[0][0])*p0 + abs2(k[1][1])*p1
		} else {
			probs[i] = abs2(k[0][1])*p1 + abs2(k[1][0])*p0
		}
	}
}

// krausDiagLike reports whether every operator in the set is diagonal or
// anti-diagonal, enabling the population-based probability fast path.
func krausDiagLike(ks []circuit.Matrix2) bool {
	for _, k := range ks {
		if !k.IsDiagonal() && !k.IsAntiDiagonal() {
			return false
		}
	}
	return true
}

func abs2(c complex128) float64 {
	return real(c)*real(c) + imag(c)*imag(c)
}

// Probabilities returns the probability of every basis state.
func (s *State) Probabilities() []float64 {
	out := make([]float64, len(s.re))
	for i, ar := range s.re {
		ai := s.im[i]
		out[i] = ar*ar + ai*ai
	}
	return out
}

// SampleOutcome draws a full-register measurement outcome without
// collapsing the state.
func (s *State) SampleOutcome(r *rng.RNG) bitstr.BitString {
	x := r.Float64()
	var acc float64
	for i, ar := range s.re {
		ai := s.im[i]
		acc += ar*ar + ai*ai
		if x < acc {
			return bitstr.New(uint64(i), s.n)
		}
	}
	return bitstr.New(uint64(len(s.re)-1), s.n)
}

// Fidelity returns |<s|other>|^2.
func (s *State) Fidelity(other *State) float64 {
	if s.n != other.n {
		panic("statevec: Fidelity size mismatch")
	}
	var dr, di float64
	for i, ar := range s.re {
		ai := -s.im[i] // conj
		br := other.re[i]
		bi := other.im[i]
		dr += ar*br - ai*bi
		di += ar*bi + ai*br
	}
	return dr*dr + di*di
}
