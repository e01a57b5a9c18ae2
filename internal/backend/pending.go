package backend

import (
	"fmt"
	"math"

	"edm/internal/circuit"
	"edm/internal/statevec"
)

// Pending diagonal updates (DESIGN.md §10). The default engine keeps a
// diagonal update it would otherwise sweep the register for — a
// diagonal unitary step (idle RZ, ZZ crosstalk), a diagonal damping
// branch — pending on the register, and the next population pass
// (statevec.PopsAfter, Batch.PopsLanes) applies it amplitude by
// amplitude as it sums. Any other use of the register flushes the list
// first through the diagonal kernels the legacy loop runs, so every
// amplitude, branch probability and projection norm stays bit-identical
// to engineLegacy's.

// dampChan is one two-operator channel of a damping step, classified
// when the step is compiled so trials never re-inspect its matrices.
// Amplitude and phase damping operators are each diagonal or
// anti-diagonal, so branch i's probability is w[i][0]*p0 + w[i][1]*p1
// over the qubit's populations — the terms krausPopProbs adds — and a
// diagonal branch is a pending one-qubit statevec.Diag.
type dampChan struct {
	ks   []circuit.Matrix2 // the Kraus pair; nil when the step lacks this channel
	w    [2][2]float64
	diag [2]bool
	// keepsZero: the channel can act on a qubit outside the register
	// (statevec.KrausKeepsZero).
	keepsZero bool
}

// newDampChan classifies a damping Kraus pair; nil gives the absent
// channel.
func newDampChan(ks []circuit.Matrix2) dampChan {
	c := dampChan{ks: ks, keepsZero: true}
	if ks == nil {
		return c
	}
	if len(ks) != 2 {
		panic(fmt.Sprintf("backend: damping channel with %d Kraus operators", len(ks)))
	}
	c.keepsZero = statevec.KrausKeepsZero(ks)
	for i, k := range ks {
		switch {
		case k.IsDiagonal():
			c.diag[i] = true
			c.w[i] = [2]float64{abs2(k[0][0]), abs2(k[1][1])}
		case k.IsAntiDiagonal():
			c.w[i] = [2]float64{abs2(k[1][0]), abs2(k[0][1])}
		default:
			panic("backend: damping Kraus operator is neither diagonal nor anti-diagonal")
		}
	}
	return c
}

func abs2(c complex128) float64 {
	return real(c)*real(c) + imag(c)*imag(c)
}

// probs returns the branch probabilities from the qubit's populations,
// exactly as KrausBranchProbs1Q (or KrausBranchProbsZero, with p1 = +0)
// computes them.
func (c *dampChan) probs(p0, p1 float64) [2]float64 {
	return [2]float64{c.w[0][0]*p0 + c.w[0][1]*p1, c.w[1][0]*p0 + c.w[1][1]*p1}
}

// branch takes branch k, of probability p, on register qubit q (outside
// for a qubit not in it), pre-scaled by 1/sqrt(p) as ApplyKrausBranch1Q
// does: a diagonal branch goes onto the pending list, an anti-diagonal
// one flushes the list and applies through ApplyKrausBranch1Q's kernel.
func (c *dampChan) branch(s *statevec.State, pend *pendList, q, k int, p float64) {
	sq := math.Sqrt(p)
	if sq <= 0 {
		panic("statevec: chose zero-probability Kraus branch")
	}
	inv := complex(1/sq, 0)
	op := c.ks[k]
	switch {
	case c.diag[k] && q == outside:
		pend.next(s).SetScale(op[0][0] * inv)
	case c.diag[k]:
		pend.next(s).Set1Q(op[0][0]*inv, op[1][1]*inv, q)
	case q == outside:
		panic("backend: Kraus operator moves a qubit outside the register")
	default:
		pend.flush(s)
		s.Apply1QAntiDiag(op[0][1]*inv, op[1][0]*inv, q)
	}
}

// setDiag makes d the update a diagonal unitary step makes on register
// qubits q0 (and q1), outside for a qubit not in the register — the
// dispatch of applyUnitaryStep's matDiag cases — and reports whether
// the step is diagonal.
func setDiag(d *statevec.Diag, st *step, q0, q1 int) bool {
	if st.class != matDiag {
		return false
	}
	switch {
	case st.kind == stepU1 && q0 == outside:
		d.SetScale(st.m2[0][0])
	case st.kind == stepU1:
		d.Set1Q(st.m2[0][0], st.m2[1][1], q0)
	case q0 == outside && q1 == outside:
		d.SetScale(st.d4[0])
	case q1 == outside:
		d.Set1Q(st.d4[0], st.d4[1], q0)
	case q0 == outside:
		d.Set1Q(st.d4[0], st.d4[2], q1)
	default:
		d.Set2Q(st.d4, q0, q1)
	}
	return true
}

// pendList is the diagonal updates one register holds back until its
// next population pass.
type pendList struct {
	n int
	d [statevec.MaxPending]statevec.Diag
}

func (p *pendList) list() []statevec.Diag { return p.d[:p.n] }

// next returns a new slot at the end of the list for the caller to
// set, flushing s first when the list is full.
func (p *pendList) next(s *statevec.State) *statevec.Diag {
	if p.n == len(p.d) {
		p.flush(s)
	}
	p.n++
	return &p.d[p.n-1]
}

// addStep appends the update of a diagonal unitary step on register
// qubits q0 (and q1) and reports whether the step is diagonal.
func (p *pendList) addStep(s *statevec.State, st *step, q0, q1 int) bool {
	if st.class != matDiag {
		return false
	}
	setDiag(p.next(s), st, q0, q1)
	return true
}

// flush applies the list to s, one sweep per update, and empties it.
func (p *pendList) flush(s *statevec.State) {
	if p.n > 0 {
		s.ApplyDiags(p.list())
		p.n = 0
	}
}

// pops applies the list to s in the population pass of qubit q
// (outside: the register's population and +0) and empties it.
func (p *pendList) pops(s *statevec.State, q int) (p0, p1 float64) {
	p0, p1 = s.PopsAfter(p.list(), q)
	p.n = 0
	return p0, p1
}
