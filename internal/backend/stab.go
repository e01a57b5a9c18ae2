package backend

// Stabilizer fast path: fully-Clifford compiled programs run on an
// Aaronson–Gottesman tableau (internal/stabilizer) instead of the
// statevector, in O(gates · n²/64) per trial with no 2^n allocation —
// which is what makes >24-qubit (and >64-qubit heavy-hex) devices
// simulable at all.
//
// The analysis walks the fused schedule once per program and converts
// every step it can into a tableau operation:
//
//   - stepU1/stepU2 unitaries are recognized *numerically*: the images
//     U X U†, U Z U† (and the four two-qubit generators) are computed
//     from the fused matrix and matched against signed Paulis
//     i^p X^x Z^z. Name-based recognition would not survive fusion,
//     which multiplies gate runs into anonymous composites.
//   - stepPauli1/stepPauli2 are stochastic Pauli injections — exactly
//     what a tableau absorbs as a phase flip per anticommuting row.
//   - stepMeasure maps to the tableau measurement, whose draw protocol
//     mirrors statevec.MeasureQubit (one uniform, outcome 1 iff u < P1).
//   - stepDamp is never Clifford: amplitude damping is not a Pauli
//     channel. Its presence (any finite T1/T2 in the calibration) stops
//     the analysis.
//
// The walk records the maximal Clifford prefix length; only when the
// prefix covers the whole schedule does the program get a stabilizer
// plan. Otherwise the machine falls back to the tape-tree statevector
// engine for the entire program (counted in StabFallbacks) — partial
// tableau-to-statevector handoff would require materializing the
// stabilizer state, which defeats the purpose.
//
// Byte-identity with the statevector engines holds by construction: a
// stabilizer trial draws the same uniforms in the same order
// (SamplePauli1Q/2Q per noise step, one uniform per measurement, one
// readout Bernoulli per measured bit), and the measurement comparison
// u < P1 agrees wherever the statevector's P1 rounds to the tableau's
// exact {0, ½, 1}. The deterministic prefix — the leading run of
// draw-free unitary steps — is applied once into a snapshot tableau
// that every trial copies from, mirroring the prefix-sharing engine's
// checkpoint trick at a fraction of the memory.

import (
	"fmt"
	"math/cmplx"
	"sync/atomic"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/dist"
	"edm/internal/noise"
	"edm/internal/rng"
	"edm/internal/stabilizer"
	"edm/internal/statevec"
)

// recognizeTol bounds the per-entry deviation between a conjugation
// image and its matched signed Pauli. Clifford products are exact up to
// rounding (~1e-15 per multiply); the nearest non-Clifford gate in the
// gate set (T) sits ~0.38 away, so the window is enormous on both sides.
const recognizeTol = 1e-9

// stabStep is one tableau-executable schedule entry. kind reuses the
// program's stepKind values; exactly one of lut1/lut2 is set for
// unitary steps.
type stabStep struct {
	kind stepKind
	lut1 *stabilizer.LUT1
	lut2 *stabilizer.LUT2
	q0   int
	q1   int
	p    float64 // depolarizing probability for stepPauli*
	cbit int
}

// stabPlan is the per-program artifact of a successful Clifford
// analysis: the converted schedule plus the deterministic-prefix
// snapshot trials start from.
type stabPlan struct {
	steps []stabStep
	// snap is the tableau after the leading snapSteps draw-free unitary
	// steps; every trial CopyFroms it instead of replaying them.
	snap      *stabilizer.Tableau
	snapSteps int
}

// stabAnalysis caches the Clifford analysis of one compiled program.
type stabAnalysis struct {
	plan      *stabPlan // non-nil iff every step converted
	prefixLen int       // leading Clifford-convertible steps
}

// stabFor returns the program's cached Clifford analysis, running it on
// first use. The analysis is engine-independent; whether its plan is
// *used* is the engine's call (selectStab).
func (m *Machine) stabFor(prog *program) *stabAnalysis {
	prog.stabOnce.Do(func() {
		prog.stab = analyzeStab(prog)
		engineStats.stabPrefixSteps.Add(int64(prog.stab.prefixLen))
		if prog.stab.plan != nil {
			engineStats.stabPrograms.Add(1)
			storeMax(&engineStats.stabMaxWords, int64(prog.stab.plan.snap.Words()))
		} else {
			engineStats.stabFallbacks.Add(1)
		}
	})
	return prog.stab
}

// storeMax raises a towards v (monotone atomic max).
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// selectStab resolves which engine executes the program and returns the
// stabilizer plan to use (nil means the statevector path). It errors
// when the selected engine cannot run the program at all: a strict
// EngineStabilizer on a non-Clifford schedule, or a statevector path on
// a device subset wider than the amplitude simulator.
func (m *Machine) selectStab(prog *program) (*stabPlan, error) {
	switch m.engine {
	case EngineStabilizer:
		a := m.stabFor(prog)
		if a.plan == nil {
			return nil, fmt.Errorf("backend: engine=stabilizer but schedule step %d is not Clifford (prefix %d of %d steps)",
				a.prefixLen, a.prefixLen, len(prog.steps))
		}
		return a.plan, nil
	case EnginePrefixSharing:
		if a := m.stabFor(prog); a.plan != nil {
			return a.plan, nil
		}
	}
	// Statevector path (legacy, pinned, or Clifford fallback).
	if prog.nLocal > statevec.MaxQubits {
		return nil, fmt.Errorf("backend: %d active qubits exceed simulator limit %d (non-Clifford schedule cannot use the stabilizer engine)",
			prog.nLocal, statevec.MaxQubits)
	}
	return nil, nil
}

// analyzeStab converts the fused schedule into tableau steps, stopping
// at the first non-Clifford step.
func analyzeStab(prog *program) *stabAnalysis {
	a := &stabAnalysis{}
	steps := make([]stabStep, 0, len(prog.steps))
	for i := range prog.steps {
		st := &prog.steps[i]
		var ss stabStep
		switch st.kind {
		case stepU1:
			l, ok := recognize1Q(st.m2)
			if !ok {
				a.prefixLen = i
				return a
			}
			ss = stabStep{kind: stepU1, lut1: l, q0: st.q0}
		case stepU2:
			l, ok := recognize2Q(st.m4)
			if !ok {
				a.prefixLen = i
				return a
			}
			ss = stabStep{kind: stepU2, lut2: l, q0: st.q0, q1: st.q1}
		case stepPauli1:
			ss = stabStep{kind: stepPauli1, q0: st.q0, p: st.p}
		case stepPauli2:
			ss = stabStep{kind: stepPauli2, q0: st.q0, q1: st.q1, p: st.p}
		case stepMeasure:
			ss = stabStep{kind: stepMeasure, q0: st.q0, cbit: st.cbit}
		default: // stepDamp: amplitude/phase damping is not a Pauli channel
			a.prefixLen = i
			return a
		}
		steps = append(steps, ss)
	}
	a.prefixLen = len(prog.steps)
	plan := &stabPlan{steps: steps, snap: stabilizer.New(prog.nLocal)}
	for _, ss := range steps {
		if ss.kind == stepU1 {
			plan.snap.Apply1(ss.q0, ss.lut1)
		} else if ss.kind == stepU2 {
			plan.snap.Apply2(ss.q0, ss.q1, ss.lut2)
		} else {
			break
		}
		plan.snapSteps++
	}
	a.plan = plan
	return a
}

// runStabStripe executes trials start, start+stride, ... on the tableau
// into counts, reusing one tableau and one classical-bit scratch across
// all of them. It is the stabilizer twin of runStripe and honors the
// same striping and cancellation contracts.
func (m *Machine) runStabStripe(prog *program, sp *stabPlan, start, stride, trials int, r *rng.RNG, counts *dist.Counts, tally *trialTally, cancel *atomic.Bool) {
	tab := stabilizer.New(prog.nLocal)
	trueBits := make([]int, prog.numClbits)
	for t := start; t < trials; t += stride {
		if cancel != nil && cancel.Load() {
			break
		}
		counts.Observe(m.runStabTrial(prog, sp, tab, trueBits, r.DeriveN("trial", t)))
		tally.stab++
	}
}

// runStabTrial executes one trial on the tableau. The draw sequence is
// step-for-step the one runTrajectory performs, so a trial's RNG stream
// position is identical on both engines at every step boundary.
func (m *Machine) runStabTrial(prog *program, sp *stabPlan, tab *stabilizer.Tableau, trueBits []int, rt *rng.RNG) bitstr.BitString {
	tab.CopyFrom(sp.snap)
	for i := range trueBits {
		trueBits[i] = 0
	}
	for i := sp.snapSteps; i < len(sp.steps); i++ {
		st := &sp.steps[i]
		switch st.kind {
		case stepU1:
			tab.Apply1(st.q0, st.lut1)
		case stepU2:
			tab.Apply2(st.q0, st.q1, st.lut2)
		case stepPauli1:
			if k := noise.SamplePauli1Q(st.p, rt); k != 0 {
				tab.ApplyPauli(st.q0, k)
			}
		case stepPauli2:
			ka, kb := noise.SamplePauli2Q(st.p, rt)
			if ka != 0 {
				tab.ApplyPauli(st.q0, ka)
			}
			if kb != 0 {
				tab.ApplyPauli(st.q1, kb)
			}
		case stepMeasure:
			trueBits[st.cbit] = tab.MeasureQubit(st.q0, rt)
		}
	}
	return m.applyReadout(prog, trueBits, rt)
}

// ---- numeric Clifford recognition ----

var (
	pauliX2 = circuit.Matrix2{{0, 1}, {1, 0}}
	pauliZ2 = circuit.Matrix2{{1, 0}, {0, -1}}
)

// dagger2 returns the conjugate transpose of m.
func dagger2(m circuit.Matrix2) circuit.Matrix2 {
	var d circuit.Matrix2
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			d[i][j] = cmplx.Conj(m[j][i])
		}
	}
	return d
}

// dagger4 returns the conjugate transpose of m.
func dagger4(m circuit.Matrix4) circuit.Matrix4 {
	var d circuit.Matrix4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d[i][j] = cmplx.Conj(m[j][i])
		}
	}
	return d
}

// phaseOf matches v against i^p for p in 0..3 within recognizeTol.
func phaseOf(v complex128) (uint8, bool) {
	for p, w := range [4]complex128{1, 1i, -1, -1i} {
		if cmplx.Abs(v-w) < recognizeTol {
			return uint8(p), true
		}
	}
	return 0, false
}

// matchPauli1 matches a 2x2 matrix against i^p X^x Z^z: column j maps to
// row j^x with value i^p (-1)^(z·j).
func matchPauli1(m circuit.Matrix2) (stabilizer.Pauli, bool) {
	x := uint8(0)
	if cmplx.Abs(m[1][0]) > 0.5 {
		x = 1
	}
	p, ok := phaseOf(m[x][0])
	if !ok {
		return stabilizer.Pauli{}, false
	}
	z := uint8(0)
	if real(m[1^x][1]/m[x][0]) < 0 {
		z = 1
	}
	want := stabilizer.Pauli{X: x, Z: z, Phase: p}
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			var exp complex128
			if i == j^int(x) {
				exp = [4]complex128{1, 1i, -1, -1i}[p]
				if z == 1 && j == 1 {
					exp = -exp
				}
			}
			if !(cmplx.Abs(m[i][j]-exp) < recognizeTol) {
				return stabilizer.Pauli{}, false
			}
		}
	}
	return want, true
}

// matchPauli2 matches a 4x4 matrix (basis index = q0 + 2*q1, slot a =
// bit 0) against i^p X_a^xa Z_a^za X_b^xb Z_b^zb: column j maps to row
// j^(xa+2xb) with value i^p (-1)^(za·j_a + zb·j_b).
func matchPauli2(m circuit.Matrix4) (stabilizer.Pauli, bool) {
	xmask := -1
	for k := 0; k < 4; k++ {
		if cmplx.Abs(m[k][0]) > 0.5 {
			xmask = k
			break
		}
	}
	if xmask < 0 {
		return stabilizer.Pauli{}, false
	}
	p, ok := phaseOf(m[xmask][0])
	if !ok {
		return stabilizer.Pauli{}, false
	}
	za, zb := uint8(0), uint8(0)
	if real(m[1^xmask][1]/m[xmask][0]) < 0 {
		za = 1
	}
	if real(m[2^xmask][2]/m[xmask][0]) < 0 {
		zb = 1
	}
	want := stabilizer.Pauli{X: uint8(xmask), Z: za | zb<<1, Phase: p}
	base := [4]complex128{1, 1i, -1, -1i}[p]
	for j := 0; j < 4; j++ {
		sign := complex128(1)
		if za == 1 && j&1 == 1 {
			sign = -sign
		}
		if zb == 1 && j>>1&1 == 1 {
			sign = -sign
		}
		for i := 0; i < 4; i++ {
			var exp complex128
			if i == j^xmask {
				exp = base * sign
			}
			if !(cmplx.Abs(m[i][j]-exp) < recognizeTol) {
				return stabilizer.Pauli{}, false
			}
		}
	}
	return want, true
}

// unitary2 rejects matrices that are not unitary within tolerance —
// conjugation by a non-unitary would not preserve Pauli algebra, and a
// fused product should always be unitary unless something upstream
// went wrong.
func unitary2(m circuit.Matrix2) bool {
	d := dagger2(m)
	prod := m.Mul(d)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			var exp complex128
			if i == j {
				exp = 1
			}
			if !(cmplx.Abs(prod[i][j]-exp) < recognizeTol) {
				return false
			}
		}
	}
	return true
}

// recognize1Q recognizes a single-qubit Clifford from its fused matrix
// by matching the conjugation images of X and Z against signed Paulis.
func recognize1Q(m circuit.Matrix2) (*stabilizer.LUT1, bool) {
	if !unitary2(m) {
		return nil, false
	}
	d := dagger2(m)
	imgX, okX := matchPauli1(m.Mul(pauliX2).Mul(d))
	imgZ, okZ := matchPauli1(m.Mul(pauliZ2).Mul(d))
	if !okX || !okZ || !imgX.Hermitian() || !imgZ.Hermitian() {
		return nil, false
	}
	return stabilizer.NewLUT1(imgX, imgZ), true
}

// pauliGen4 builds the 4x4 matrix of X^x Z^z per slot (slot a = bit 0 of
// the basis index and of x/z).
func pauliGen4(x, z uint8) circuit.Matrix4 {
	var m circuit.Matrix4
	for j := 0; j < 4; j++ {
		sign := complex128(1)
		if z&1 == 1 && j&1 == 1 {
			sign = -sign
		}
		if z>>1&1 == 1 && j>>1&1 == 1 {
			sign = -sign
		}
		m[j^int(x)][j] = sign
	}
	return m
}

// mul4 is a plain 4x4 complex matrix product (kept local so the
// recognizer has no dependency on the noise package's fused helpers).
func mul4(a, b circuit.Matrix4) circuit.Matrix4 {
	var c circuit.Matrix4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s complex128
			for k := 0; k < 4; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return c
}

// unitary4 is unitary2 for 4x4 matrices.
func unitary4(m circuit.Matrix4) bool {
	prod := mul4(m, dagger4(m))
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var exp complex128
			if i == j {
				exp = 1
			}
			if !(cmplx.Abs(prod[i][j]-exp) < recognizeTol) {
				return false
			}
		}
	}
	return true
}

// recognize2Q recognizes a two-qubit Clifford from its fused matrix by
// matching the conjugation images of X_a, Z_a, X_b, Z_b.
func recognize2Q(m circuit.Matrix4) (*stabilizer.LUT2, bool) {
	if !unitary4(m) {
		return nil, false
	}
	d := dagger4(m)
	var imgs [4]stabilizer.Pauli
	gens := [4]circuit.Matrix4{
		pauliGen4(1, 0), // X_a
		pauliGen4(0, 1), // Z_a
		pauliGen4(2, 0), // X_b
		pauliGen4(0, 2), // Z_b
	}
	for i, g := range gens {
		img, ok := matchPauli2(mul4(mul4(m, g), d))
		if !ok || !img.Hermitian() {
			return nil, false
		}
		imgs[i] = img
	}
	return stabilizer.NewLUT2(imgs[0], imgs[1], imgs[2], imgs[3]), true
}
