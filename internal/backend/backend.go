// Package backend is the simulated NISQ machine. It stands in for the
// paper's ibmq-16-melbourne: it accepts a *physical* executable (a circuit
// whose qubit indices are device qubits and whose two-qubit gates respect
// the coupling map), runs it for N trials under the device's noise model,
// and returns the histogram of measured outcomes — the "output log" of the
// NISQ execution model (paper Section 2.2).
//
// Two execution paths share one compiled schedule:
//
//   - Run: Monte-Carlo trajectories through the statevector engine, one
//     stochastic sample per trial. This is the path used by all
//     experiments; its sampling noise is the paper's shot noise.
//   - ExactDist: exact channel evolution through the density-matrix
//     engine, used by tests to validate the trajectory path and by
//     analyses that need noise-free-of-shot-noise distributions.
//
// Only the qubits the executable touches are simulated; crosstalk onto
// untouched spectator qubits is folded into an equivalent local phase
// (a spectator stuck in |0> turns a ZZ kick into a Z rotation).
package backend

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/density"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/memo"
	"edm/internal/noise"
	"edm/internal/rng"
	"edm/internal/statevec"
)

// Machine simulates one device with one (runtime) calibration. It keeps
// a bounded cache of compiled programs keyed by circuit fingerprint, so
// experiment loops that re-run the same executable across rounds and
// policies skip compilation and fusion.
type Machine struct {
	cal   *device.Calibration
	progs *memo.Cache[progEntry] // cache.go
	// runs memoizes whole trial runs by (circuit, trials, RNG state);
	// nil unless EnableRunCache was called. See runcache.go.
	runs *memo.Cache[*runEntry]
	// engine swaps the default engine for a reference; tests set it
	// before the machine is shared across goroutines.
	engine engineRef
	// planBudget, when positive, replaces planStateBudget as the plan
	// bytes past which the machine's tape trees stop growing; tests set
	// it before the machine is shared across goroutines.
	planBudget int64
}

// engineRef names the trajectory engine a Run uses. The default runs
// fully-Clifford schedules on the stabilizer tableau (stab.go) and the
// rest on the tape-tree statevector engine (prefix.go, sched.go); the
// other two are references that only tests select.
type engineRef uint8

const (
	engineDefault engineRef = iota
	// engineLegacy runs every trial's full trajectory from |0...0> and
	// never the tableau: the oracle the byte-identity tests compare the
	// default engine with.
	engineLegacy
	// engineStatevector runs the tape-tree statevector engine even on
	// fully-Clifford schedules, the reference the tableau is checked and
	// timed against.
	engineStatevector
)

// New returns a machine with the given runtime calibration. The
// calibration passed here may differ from the one the compiler used — that
// gap is exactly the compile-time/run-time drift of paper Section 5.3.
func New(cal *device.Calibration) *Machine {
	if err := cal.Validate(); err != nil {
		panic(fmt.Sprintf("backend: invalid calibration: %v", err))
	}
	return &Machine{cal: cal, progs: memo.New[progEntry](progCacheLimit)}
}

// Calibration returns the machine's runtime calibration.
func (m *Machine) Calibration() *device.Calibration { return m.cal }

// stepKind discriminates compiled schedule steps.
type stepKind int

const (
	stepU1      stepKind = iota // deterministic one-qubit unitary
	stepU2                      // deterministic two-qubit unitary
	stepPauli1                  // stochastic one-qubit depolarizing event
	stepPauli2                  // stochastic two-qubit depolarizing event
	stepDamp                    // T1/T2 damping over a time window
	stepMeasure                 // projective measurement into a classical bit
)

// matClass tags a unitary step with the kernel that applies it. Classes
// are detected once, at fusion time, instead of re-inspecting matrices on
// every trial. The zero value matGeneral is always safe.
type matClass uint8

const (
	matGeneral matClass = iota // dense kernel
	matDiag                    // diagonal matrix (RZ, ZZ, CZ products)
	matAnti                    // anti-diagonal 1Q matrix (X-like)
	matPerm                    // 2Q permutation-with-phases (CX-like)
)

// step is one schedule entry; qubit indices are *local* (compacted).
type step struct {
	kind  stepKind
	class matClass
	m2    circuit.Matrix2
	m4    circuit.Matrix4
	d4    [4]complex128 // diagonal of m4 when kind==stepU2 and class==matDiag
	perm  statevec.Perm4
	q0    int
	q1    int
	p     float64      // depolarizing probability for stepPauli*
	damp  *[2]dampChan // stepDamp: the amplitude then the phase damping channel
	cbit  int
	phys  int // physical qubit, for readout handling of measurements
}

// program is a compiled, noise-annotated schedule for one executable.
type program struct {
	nLocal    int
	numClbits int
	steps     []step
	measPhys  []int // classical bit -> physical qubit (-1 if unwritten)

	// prefix is the tape tree of the prefix-sharing engine (prefix.go),
	// built at most once per compiled program on first use and grown by
	// later Runs; Machine.PlanStats reads it without the Once.
	prefixOnce sync.Once
	prefix     atomic.Pointer[prefixPlan]

	// stab is the Clifford analysis of the stabilizer engine (stab.go),
	// built at most once per compiled program on first use.
	stabOnce sync.Once
	stab     *stabAnalysis
}

// compile lowers the executable onto the machine: SWAPs become CX
// triples, coherent errors are folded into the gate unitaries, stochastic
// and damping events are inserted per the device calibration, and qubit
// indices are compacted to the touched subset.
func (m *Machine) compile(exe *circuit.Circuit) (*program, error) {
	if err := exe.Validate(); err != nil {
		return nil, err
	}
	if exe.NumQubits > m.cal.Topo.Qubits {
		return nil, fmt.Errorf("backend: executable uses %d qubits, device has %d", exe.NumQubits, m.cal.Topo.Qubits)
	}
	lowered := exe.LowerSwaps()
	// The statevector width limit is enforced at engine-selection time
	// (selectStab), not here: fully-Clifford schedules run on the
	// stabilizer tableau at any device width. Classical bits stay capped
	// by the histogram key width.
	if lowered.NumClbits > bitstr.MaxBits {
		return nil, fmt.Errorf("backend: %d classical bits exceed histogram limit %d", lowered.NumClbits, bitstr.MaxBits)
	}
	active := lowered.UsedQubits()
	local := make(map[int]int, len(active))
	for i, q := range active {
		local[q] = i
	}
	activeSet := make(map[int]bool, len(active))
	for _, q := range active {
		activeSet[q] = true
	}

	p := &program{nLocal: len(active), numClbits: lowered.NumClbits}
	p.measPhys = make([]int, lowered.NumClbits)
	for i := range p.measPhys {
		p.measPhys[i] = -1
	}

	cal := m.cal
	clock := make(map[int]float64, len(active)) // ns per physical qubit
	measured := make(map[int]bool)

	idleTo := func(q int, until float64) {
		dt := until - clock[q]
		if dt <= 0 {
			return
		}
		p.addDamp(cal, local[q], q, dt)
		// Idle coherent phase drift, scaled by elapsed time.
		if cal.CohZ[q] != 0 {
			angle := cal.CohZ[q] * dt / cal.Gate1QTimeNs
			p.steps = append(p.steps, step{kind: stepU1, m2: noise.RZMatrix(angle), q0: local[q]})
		}
		clock[q] = until
	}

	for i, op := range lowered.Ops {
		switch {
		case op.Kind == circuit.Barrier:
			qs := op.Qubits
			if len(qs) == 0 {
				qs = active
			}
			var maxT float64
			for _, q := range qs {
				if activeSet[q] && clock[q] > maxT {
					maxT = clock[q]
				}
			}
			// A barrier makes its qubits wait for the slowest one, and the
			// wait is real time during which they decohere.
			for _, q := range qs {
				if activeSet[q] {
					idleTo(q, maxT)
				}
			}
			continue

		case op.Kind == circuit.Measure:
			q := op.Qubits[0]
			if measured[q] {
				return nil, fmt.Errorf("backend: op %d measures qubit %d twice", i, q)
			}
			// All measurements start together at the latest clock so far:
			// hardware reads the whole register out at the end of the
			// shot, and earlier-finished qubits idle (and decohere) until
			// readout begins.
			var maxT float64
			for _, a := range active {
				if clock[a] > maxT {
					maxT = clock[a]
				}
			}
			idleTo(q, maxT)
			// Decoherence during the measurement window itself.
			p.addDamp(cal, local[q], q, cal.MeasTimeNs)
			clock[q] += cal.MeasTimeNs
			p.steps = append(p.steps, step{kind: stepMeasure, q0: local[q], cbit: op.Cbit, phys: q})
			p.measPhys[op.Cbit] = q
			measured[q] = true

		case op.Kind.IsTwoQubit():
			a, b := op.Qubits[0], op.Qubits[1]
			if measured[a] || measured[b] {
				return nil, fmt.Errorf("backend: op %d acts on a measured qubit", i)
			}
			if !cal.Topo.HasEdge(a, b) {
				return nil, fmt.Errorf("backend: op %d (%v %d %d) violates the coupling map", i, op.Kind, a, b)
			}
			e := device.NewEdge(a, b)
			start := clock[a]
			if clock[b] > start {
				start = clock[b]
			}
			idleTo(a, start)
			idleTo(b, start)
			// Fold systematic errors into the gate unitary:
			// (RY_a ⊗ RY_b) · ZZ(over-rotation) · GATE.
			m4 := circuit.Matrix2Q(op.Kind)
			m4 = noise.Mul4(noise.ZZMatrix(cal.CXCohZZ[e]), m4)
			m4 = noise.Mul4(noise.Kron(noise.RYMatrix(cal.CohY[a]), noise.RYMatrix(cal.CohY[b])), m4)
			p.steps = append(p.steps, step{kind: stepU2, m4: m4, q0: local[a], q1: local[b]})
			if cal.CXErr[e] > 0 {
				p.steps = append(p.steps, step{kind: stepPauli2, p: cal.CXErr[e], q0: local[a], q1: local[b]})
			}
			// Crosstalk: every coupling adjacent to the firing link gets a
			// ZZ kick. Active spectators get the full two-qubit unitary;
			// untouched spectators sit in |0>, where ZZ reduces to a Z
			// rotation on the active endpoint.
			for _, x := range [2]int{a, b} {
				for _, c := range cal.Topo.Neighbors(x) {
					if c == a || c == b {
						continue
					}
					xe := device.NewEdge(x, c)
					theta := cal.CrossZZ[xe]
					if theta == 0 {
						continue
					}
					if activeSet[c] {
						p.steps = append(p.steps, step{kind: stepU2, m4: noise.ZZMatrix(theta), q0: local[x], q1: local[c]})
					} else {
						p.steps = append(p.steps, step{kind: stepU1, m2: noise.RZMatrix(2 * theta), q0: local[x]})
					}
				}
			}
			p.addDamp(cal, local[a], a, cal.Gate2QTimeNs)
			p.addDamp(cal, local[b], b, cal.Gate2QTimeNs)
			clock[a] = start + cal.Gate2QTimeNs
			clock[b] = start + cal.Gate2QTimeNs

		default: // one-qubit unitary
			q := op.Qubits[0]
			if measured[q] {
				return nil, fmt.Errorf("backend: op %d acts on a measured qubit", i)
			}
			m2 := circuit.Matrix1Q(op.Kind, op.Params)
			if op.Kind != circuit.I && cal.CohY[q] != 0 {
				m2 = noise.RYMatrix(cal.CohY[q]).Mul(m2)
			}
			p.steps = append(p.steps, step{kind: stepU1, m2: m2, q0: local[q]})
			if op.Kind != circuit.I && cal.SQErr[q] > 0 {
				p.steps = append(p.steps, step{kind: stepPauli1, p: cal.SQErr[q], q0: local[q]})
			}
			p.addDamp(cal, local[q], q, cal.Gate1QTimeNs)
			clock[q] += cal.Gate1QTimeNs
		}
	}
	return p, nil
}

// addDamp appends a damping step for physical qubit q over dt nanoseconds
// (T1/T2 are in microseconds) unless it would be a no-op. Its Kraus
// pairs are classified here, once per compiled program (dampChan).
func (p *program) addDamp(cal *device.Calibration, lq, q int, dt float64) {
	gA, gP := noise.DampingParams(dt, cal.T1us[q]*1000, cal.T2us[q]*1000)
	if gA == 0 && gP == 0 {
		return
	}
	var ampK, phK []circuit.Matrix2
	if gA > 0 {
		ampK = noise.AmplitudeDampingKraus(gA)
	}
	if gP > 0 {
		phK = noise.PhaseDampingKraus(gP)
	}
	p.steps = append(p.steps, step{kind: stepDamp, q0: lq, damp: &[2]dampChan{newDampChan(ampK), newDampChan(phK)}})
}

// parallelThreshold is the trial count from which Run fans trials out
// across CPU cores (trialWorkers). Below it the goroutine overhead is
// not worth paying.
const parallelThreshold = 256

// Run is RunCtx with a context that is never cancelled.
func (m *Machine) Run(exe *circuit.Circuit, trials int, r *rng.RNG) (*dist.Counts, error) {
	return m.RunCtx(context.Background(), exe, trials, r)
}

// RunCtx executes the physical circuit for the given number of trials
// and returns the outcome histogram. The RNG makes the run exactly
// reproducible: every trial uses an independent stream derived from its
// index, so the histogram is identical whether trials run serially or
// across cores, and whether the compiled program came from the cache or
// a fresh compile. When EnableRunCache is on, identical (circuit,
// trials, RNG state) invocations return one shared immutable histogram;
// the reproducibility contract makes the cached and fresh results
// bit-identical.
//
// ctx only ever truncates work whose partial histogram is then
// discarded, so a run that returns is bit-identical whatever ctx is
// (DESIGN.md §12). A ctx that can never be cancelled simulates on the
// caller's goroutine with no cancel flag. A cancellable one:
//
//   - without the run cache, arms a flag the trial loops poll, so the
//     call returns ctx.Err() promptly, having wasted only the trials
//     already simulated;
//   - with the run cache (which only the campaign's cached rounds
//     enable), runs the simulation detached through the cache's
//     singleflight — identical concurrent runs wait on the same entry,
//     and the finished histogram stays warm for the next caller — while
//     this caller detaches with ctx.Err() as soon as its context expires.
func (m *Machine) RunCtx(ctx context.Context, exe *circuit.Circuit, trials int, r *rng.RNG) (*dist.Counts, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if trials < 0 {
		return nil, fmt.Errorf("backend: negative trial count")
	}
	if m.runs != nil {
		e, err := m.runs.GetCtx(ctx, runKey(exe, trials, r), func() *runEntry {
			counts, err := m.runFresh(context.Background(), exe, trials, r)
			return &runEntry{counts: counts, err: err}
		})
		if err != nil {
			return nil, err
		}
		return e.counts, e.err
	}
	return m.runFresh(ctx, exe, trials, r)
}

// runFresh is the uncached RunCtx body: compile (through the program
// cache) and simulate. A cancellable ctx arms the cancel flag the trial
// loops poll, so a cancelled run abandons its remaining trials promptly.
func (m *Machine) runFresh(ctx context.Context, exe *circuit.Circuit, trials int, r *rng.RNG) (*dist.Counts, error) {
	prog, err := m.getProgram(exe)
	if err != nil {
		return nil, err
	}
	sp, err := m.selectStab(prog)
	if err != nil {
		return nil, err
	}
	var cancel *atomic.Bool
	if ctx.Done() != nil {
		cancel = new(atomic.Bool)
		stop := context.AfterFunc(ctx, func() { cancel.Store(true) })
		defer stop()
	}
	counts := m.runProgram(prog, sp, trials, r, cancel)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return counts, nil
}

// runProgram executes a compiled program for the given number of trials.
// Prefix-planned programs run the batched replay engine (sched.go);
// stabilizer programs and the legacy loop (engineLegacy) stripe their
// trials statically: worker w owns trials w, w+workers, w+2*workers, ...
// A non-nil cancel flag makes the trial loops stop early once it flips
// true; the partial histogram is then discarded by the caller, so the
// flag never affects a result that is actually returned.
func (m *Machine) runProgram(prog *program, sp *stabPlan, trials int, r *rng.RNG, cancel *atomic.Bool) *dist.Counts {
	if sp == nil {
		if plan := m.planFor(prog); plan != nil {
			return m.runBatched(prog, plan, trials, r, cancel)
		}
	}
	workers := trialWorkers(trials)
	return fanOut(workers, prog.numClbits, func(w int, counts *dist.Counts, tally *trialTally) {
		if sp != nil {
			m.runStabStripe(prog, sp, w, workers, trials, r, counts, tally, cancel)
		} else {
			m.runStripe(prog, w, workers, trials, r, counts, cancel)
		}
	})
}

// runStripe executes trials start, start+stride, ... through the legacy
// loop into counts, reusing one statevector and one classical-bit
// scratch across all of them. The scratch statevector comes from the
// process-wide buffer pool, so stripes across runs and workers recycle a
// handful of buffers. A non-nil cancel flag is polled once per trial — a
// few nanoseconds against a trial's microseconds — and abandons the
// stripe when set.
func (m *Machine) runStripe(prog *program, start, stride, trials int, r *rng.RNG, counts *dist.Counts, cancel *atomic.Bool) {
	scratch := statevec.GetState(prog.nLocal)
	defer statevec.PutState(scratch)
	trueBits := make([]int, prog.numClbits)
	for t := start; t < trials; t += stride {
		if cancel != nil && cancel.Load() {
			break
		}
		counts.Observe(m.runTrajectory(prog, scratch, trueBits, r.DeriveN("trial", t)))
	}
}

// RunDist is Run followed by histogram normalization.
func (m *Machine) RunDist(exe *circuit.Circuit, trials int, r *rng.RNG) (*dist.Dist, error) {
	c, err := m.Run(exe, trials, r)
	if err != nil {
		return nil, err
	}
	return c.Dist(), nil
}

// runTrajectory executes one trial of the legacy loop on the full
// register. s is a statevector owning at least prog.nLocal qubits' worth
// of buffer and trueBits scratch of size numClbits; both are reset here
// so callers reuse one allocation across trials.
func (m *Machine) runTrajectory(prog *program, s *statevec.State, trueBits []int, r *rng.RNG) bitstr.BitString {
	s.Reset()
	for i := range trueBits {
		trueBits[i] = 0
	}
	for i := range prog.steps {
		st := &prog.steps[i]
		switch st.kind {
		case stepU1, stepU2:
			applyUnitaryStep(s, st, st.q0, st.q1)
		case stepPauli1:
			hookDraw(-1, i, st.p, 0)
			if k := noise.SamplePauli1Q(st.p, r); k != 0 {
				s.Apply1Q(noise.Pauli1Q[k], st.q0)
			}
		case stepPauli2:
			hookDraw(-1, i, st.p, 0)
			ka, kb := noise.SamplePauli2Q(st.p, r)
			if ka != 0 {
				s.Apply1Q(noise.Pauli1Q[ka], st.q0)
			}
			if kb != 0 {
				s.Apply1Q(noise.Pauli1Q[kb], st.q1)
			}
		case stepDamp:
			// State.ApplyKraus1Q on each channel, spelled out so the draw
			// hook sees the branch probabilities.
			for c := range st.damp {
				ks := st.damp[c].ks
				if ks == nil {
					continue
				}
				var probs [2]float64
				s.KrausBranchProbs1Q(ks, st.q0, probs[:])
				hookDraw(-1, i, probs[0], probs[1])
				k := r.Choose(probs[:])
				s.ApplyKrausBranch1Q(ks, st.q0, k, probs[k])
			}
		case stepMeasure:
			// State.MeasureQubit's draw, then its projection.
			p1 := s.ProbabilityOne(st.q0)
			hookDraw(-1, i, p1, 0)
			k := 0
			if r.Float64() < p1 {
				k = 1
			}
			s.Project(st.q0, k)
			trueBits[st.cbit] = k
		}
	}
	return m.applyReadout(prog, trueBits, r)
}

// applyUnitaryStep dispatches a deterministic unitary step to its fused
// kernel class, on register qubits q0 (and q1). It is shared by the
// legacy trial loop and the dominant-path builder, so both evolve states
// through identical kernels. Only a diagonal step can find a qubit
// outside the register (registerSchedule): it acts with its rows for
// that qubit in |0>.
func applyUnitaryStep(s *statevec.State, st *step, q0, q1 int) {
	switch st.kind {
	case stepU1:
		switch st.class {
		case matDiag:
			if q0 == outside {
				s.Scale(st.m2[0][0])
				return
			}
			s.Apply1QDiag(st.m2[0][0], st.m2[1][1], q0)
		case matAnti:
			s.Apply1QAntiDiag(st.m2[0][1], st.m2[1][0], q0)
		default:
			s.Apply1Q(st.m2, q0)
		}
	case stepU2:
		switch st.class {
		case matDiag:
			switch {
			case q0 == outside && q1 == outside:
				s.Scale(st.d4[0])
			case q1 == outside:
				s.Apply1QDiag(st.d4[0], st.d4[1], q0)
			case q0 == outside:
				s.Apply1QDiag(st.d4[0], st.d4[2], q1)
			default:
				s.Apply2QDiag(st.d4, q0, q1)
			}
		case matPerm:
			s.Apply2QPerm(st.perm, q0, q1)
		default:
			s.Apply2Q(st.m4, q0, q1)
		}
	}
}

// applyReadout converts true measured bits into read-out bits by applying
// biased, pairwise-correlated classical flips.
func (m *Machine) applyReadout(prog *program, trueBits []int, r *rng.RNG) bitstr.BitString {
	out := bitstr.Zeros(prog.numClbits)
	for cb, q := range prog.measPhys {
		if q < 0 {
			continue
		}
		flip := r.Bernoulli(noise.ReadoutFlipProb(m.cal, q, trueBits[cb], m.neighbourOne(prog, q, trueBits)))
		bit := trueBits[cb]
		if flip {
			bit ^= 1
		}
		if bit == 1 {
			out = out.WithBit(cb, true)
		}
	}
	return out
}

// neighbourOne reports whether any coupled, measured neighbour of physical
// qubit q has true bit 1 in this trial.
func (m *Machine) neighbourOne(prog *program, q int, trueBits []int) bool {
	for cb, p := range prog.measPhys {
		if p < 0 || p == q {
			continue
		}
		if trueBits[cb] == 1 && m.cal.Topo.HasEdge(q, p) {
			return true
		}
	}
	return false
}

// ExactDist computes the exact noisy output distribution of the
// executable through the density-matrix engine (no shot noise). The
// engine reads every measured qubit's population at the end, so it
// returns an error when a damping step acts on a qubit after its
// measurement (a later barrier idling it), where trajectories keep the
// bit recorded at the measurement; it also returns one for executables
// touching more than density.MaxQubits qubits.
func (m *Machine) ExactDist(exe *circuit.Circuit) (*dist.Dist, error) {
	prog, err := m.getProgram(exe)
	if err != nil {
		return nil, err
	}
	return m.exactFromProgram(prog)
}

// exactFromProgram evolves a compiled program through the density engine.
func (m *Machine) exactFromProgram(prog *program) (*dist.Dist, error) {
	if prog.nLocal > density.MaxQubits {
		return nil, fmt.Errorf("backend: %d active qubits exceed density engine limit %d", prog.nLocal, density.MaxQubits)
	}
	rho := density.New(prog.nLocal)
	// localMeasured[lq] = cbit or -1.
	localMeasured := make([]int, prog.nLocal)
	for i := range localMeasured {
		localMeasured[i] = -1
	}
	for i := range prog.steps {
		st := &prog.steps[i]
		switch st.kind {
		case stepU1:
			if st.class == matDiag {
				rho.Apply1QDiag(st.m2[0][0], st.m2[1][1], st.q0)
			} else {
				rho.Apply1Q(st.m2, st.q0)
			}
		case stepU2:
			if st.class == matDiag {
				rho.Apply2QDiag(st.d4, st.q0, st.q1)
			} else {
				rho.Apply2Q(st.m4, st.q0, st.q1)
			}
		case stepPauli1:
			rho.ApplyKraus1Q(noise.DepolarizingKraus1Q(st.p), st.q0)
		case stepPauli2:
			rho.ApplyKraus2Q(noise.DepolarizingKraus2Q(st.p), st.q0, st.q1)
		case stepDamp:
			if localMeasured[st.q0] >= 0 {
				return nil, fmt.Errorf("backend: step %d damps qubit %d after its measurement; ExactDist reads populations only at the end", i, prog.measPhys[localMeasured[st.q0]])
			}
			for c := range st.damp {
				if ks := st.damp[c].ks; ks != nil {
					rho.ApplyKraus1Q(ks, st.q0)
				}
			}
		case stepMeasure:
			localMeasured[st.q0] = st.cbit
		}
	}
	// Convert the diagonal into a distribution over classical bits, then
	// push it through the correlated readout-error channel exactly.
	out := dist.New(prog.numClbits)
	diag := rho.Diagonal()
	trueBits := make([]int, prog.numClbits)
	sp := newReadoutSpreader(prog)
	for b, pb := range diag {
		if pb <= 0 {
			continue
		}
		for i := range trueBits {
			trueBits[i] = 0
		}
		for lq, cb := range localMeasured {
			if cb >= 0 && b>>uint(lq)&1 == 1 {
				trueBits[cb] = 1
			}
		}
		m.spreadReadout(sp, prog, trueBits, pb, out)
	}
	return out, nil
}

// readoutSpreader holds the preallocated scratch spreadReadout needs:
// the measured classical bits with their per-truth flip probabilities,
// and the doubling expansion buffer over partial read outcomes. One
// spreader serves every basis state of an ExactDist call, so the
// per-state cost is pure arithmetic.
type readoutSpreader struct {
	cbs   []int     // measured classical bits, ascending
	flips []float64 // flip probability per entry, refilled per truth
	buf   []readPartial
}

type readPartial struct {
	bits uint64
	p    float64
}

func newReadoutSpreader(prog *program) *readoutSpreader {
	sp := &readoutSpreader{cbs: make([]int, 0, len(prog.measPhys))}
	for cb, q := range prog.measPhys {
		if q >= 0 {
			sp.cbs = append(sp.cbs, cb)
		}
	}
	sp.flips = make([]float64, len(sp.cbs))
	sp.buf = make([]readPartial, 1<<uint(len(sp.cbs)))
	return sp
}

// spreadReadout distributes probability mass pb of the true outcome over
// all possible read outcomes under independent-given-truth flips. The
// expansion is iterative: the buffer of partial outcomes doubles once per
// measured bit, replacing the recursive closure this used to allocate
// per basis state.
func (m *Machine) spreadReadout(sp *readoutSpreader, prog *program, trueBits []int, pb float64, out *dist.Dist) {
	for i, cb := range sp.cbs {
		q := prog.measPhys[cb]
		sp.flips[i] = noise.ReadoutFlipProb(m.cal, q, trueBits[cb], m.neighbourOne(prog, q, trueBits))
	}
	sp.buf[0] = readPartial{bits: 0, p: pb}
	n := 1
	for i, cb := range sp.cbs {
		flip := sp.flips[i]
		tb := uint64(trueBits[cb])
		for j := 0; j < n; j++ {
			cur := sp.buf[j]
			sp.buf[j] = readPartial{bits: cur.bits | (tb << uint(cb)), p: cur.p * (1 - flip)}
			sp.buf[n+j] = readPartial{bits: cur.bits | ((tb ^ 1) << uint(cb)), p: cur.p * flip}
		}
		n <<= 1
	}
	for _, rp := range sp.buf[:n] {
		if rp.p != 0 {
			out.Add(bitstr.New(rp.bits, prog.numClbits), rp.p)
		}
	}
}
