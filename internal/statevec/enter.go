package statevec

import (
	"fmt"
	"math"

	"edm/internal/circuit"
)

// Qubits outside the register. A qubit that is exactly |0> contributes
// nothing but exact zeros to a statevector: every amplitude with its bit
// set is zero. A caller may therefore keep it out of the register until
// the first step that could move it, run every step before that on the
// narrower register, and insert it with Enter. The methods below are the
// steps that act on a qubit while it is outside. Each leaves the
// register's amplitudes bit-identical to the ones the full register
// holds with that qubit clear, and each reduction sums the same nonzero
// terms in the same order — the full register's extra terms are +0 —
// so branch probabilities agree bit for bit. Only the zero amplitudes
// may differ, in sign, which no probability can see.

// Enter inserts a qubit in |0> into the register at index q, 0 <= q <=
// N(): the qubits at q and above each move up one index, every
// amplitude keeps its value at its new index, and the amplitudes with
// the new qubit set are +0. The register widens in place, so an owned
// state's buffer must have room for the wider register (GetState a
// state at the widest register it will reach and narrow it with
// CopyFrom); Batch lanes enter together through Batch.Enter, so a lane
// view panics here.
func (s *State) Enter(q int) {
	if q < 0 || q > s.n {
		panic(fmt.Sprintf("statevec: Enter at %d outside [0,%d]", q, s.n))
	}
	if s.buf == nil {
		panic("statevec: Enter on a batch lane view")
	}
	size := len(s.re)
	s.carve(s.n + 1)
	enterSpread(s.re, s.im, size, 1<<uint(q))
}

// enterSpread widens the first `size` amplitudes of re/im by a zero
// qubit at bit mask `bit`: the run of `bit` amplitudes starting at s
// (s a multiple of bit) moves to 2s, and the run above it becomes +0.
// The lane index of a Batch sits above every qubit bit, so the same
// spread widens every live lane at once. It runs top down: each run
// moves to an index at or above its own, so it is read before any write
// lands on it. On AVX2 hardware, runs of up to 32 amplitudes take one
// pass (enterSpreadAVX) over the first size&^3 amplitudes, after the
// runs above them, which exist only when narrow lanes leave size short
// of a multiple of 4; longer runs move faster through copy and clear.
func enterSpread(re, im []float64, size, bit int) {
	re, im = re[:2*size], im[:2*size]
	v := 0
	if kernelAVX2 && bit <= 32 {
		v = size &^ 3
	}
	for s := size - bit; s >= v; s -= bit {
		d := 2 * s
		if bit < 8 {
			for i := bit - 1; i >= 0; i-- {
				re[d+i] = re[s+i]
				im[d+i] = im[s+i]
			}
			for i := d + bit; i < d+2*bit; i++ {
				re[i] = 0
				im[i] = 0
			}
			continue
		}
		copy(re[d:d+bit], re[s:s+bit])
		copy(im[d:d+bit], im[s:s+bit])
		clear(re[d+bit : d+2*bit])
		clear(im[d+bit : d+2*bit])
	}
	if v > 0 {
		enterSpreadAVX(&re[0], &im[0], v, bit)
	}
}

// Scale multiplies every amplitude by c. A diagonal unitary on a qubit
// outside the register is this, with c its (0,0) entry: through the
// same complex multiply (ac - bd, ad + bc) the diagonal kernels use.
func (s *State) Scale(c complex128) {
	cscaleRun(s.re, s.im, real(c), imag(c))
}

// KrausKeepsZero reports whether a Kraus set can act on a qubit outside
// the register: every operator is diagonal or anti-diagonal — so its
// branch probabilities follow from the qubit's populations — and none
// moves |0> (a zero (1,0) entry). Amplitude and phase damping qualify.
func KrausKeepsZero(ks []circuit.Matrix2) bool {
	for _, k := range ks {
		if k[1][0] != 0 || !(k.IsDiagonal() || k.IsAntiDiagonal()) {
			return false
		}
	}
	return true
}

// KrausBranchProbsZero fills probs with the branch probabilities of the
// channel on a qubit outside the register: exactly KrausBranchProbs1Q on
// the register widened by that qubit, whose populations are (this
// register's population, +0) summed in the same order. The set must
// satisfy KrausKeepsZero.
func (s *State) KrausBranchProbsZero(ks []circuit.Matrix2, probs []float64) {
	if len(probs) != len(ks) {
		panic("statevec: KrausBranchProbsZero buffer size mismatch")
	}
	if !KrausKeepsZero(ks) {
		panic("statevec: Kraus set moves a qubit outside the register")
	}
	krausPopProbs(ks, s.population(), 0, probs)
}

// ApplyKrausBranchZero applies branch `choice` of the channel to a qubit
// outside the register, pre-scaled by 1/sqrt(p) as ApplyKrausBranch1Q
// is. The operator leaves |0> in place, so the branch scales the
// register by k00/sqrt(p) — the factor ApplyKrausBranch1Q applies to the
// widened register's amplitudes with that qubit clear.
func (s *State) ApplyKrausBranchZero(ks []circuit.Matrix2, choice int, p float64) {
	sq := math.Sqrt(p)
	if sq <= 0 {
		panic("statevec: chose zero-probability Kraus branch")
	}
	inv := complex(1/sq, 0)
	k := ks[choice]
	if !k.IsDiagonal() {
		panic("statevec: Kraus operator moves a qubit outside the register")
	}
	s.Scale(k[0][0] * inv)
}

// Renormalize scales the register to unit norm with projectQubit's norm
// pass and scale. Measuring a qubit outside the register is this: its
// P(1) is +0, so the draw always observes 0, and projecting onto 0
// zeroes nothing and renormalizes the rest.
func (s *State) Renormalize() {
	norm := s.population()
	if norm <= 0 {
		panic("statevec: projection onto zero-probability outcome")
	}
	cscaleRun(s.re, s.im, 1/math.Sqrt(norm), 0)
}
