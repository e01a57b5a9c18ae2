package backend

import (
	"fmt"
	"math"
	"testing"

	"edm/internal/circuit"
	"edm/internal/rng"
	"edm/internal/statevec"
	"edm/internal/workloads"
)

// TestLazyEntryIdentity pins the lazily widening register to the
// full-register oracle: on circuits whose qubits meet crosstalk, idle
// damping, a diagonal gate or a measurement before they enter — and on
// seeded random circuits with measurements at random points — the
// default engine (batched replay) and engineLegacy must produce
// byte-equal Counts at 100 (serial) and 2000 (parallel) trials. ci.sh
// runs it in both the trajectory-engine and batched-replay gates.
func TestLazyEntryIdentity(t *testing.T) {
	cases := fixedEntryCases()
	for seed := uint64(7); seed <= 12; seed++ {
		cases = append(cases, dropCase{name: fmt.Sprintf("random-%d", seed), circuit: randomDropCircuit(seed)})
	}
	for _, tc := range cases {
		cal := calFor(tc)
		probe := New(cal)
		prog, err := probe.getProgram(tc.circuit)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		if sp, _ := probe.selectStab(prog); sp != nil {
			t.Fatalf("%s: routed to the stabilizer engine; the case must exercise the statevector", tc.name)
		}
		late := false
		for _, r := range registerSchedule(prog) {
			late = late || (r.enter[0] >= 0 && r.width > 0)
		}
		if !late {
			t.Fatalf("%s: no qubit enters after the first; the case does not exercise lazy entry", tc.name)
		}
		for _, trials := range []int{100, 2000} {
			legacy := New(cal)
			legacy.engine = engineLegacy
			want, err := legacy.Run(tc.circuit, trials, rng.New(77))
			if err != nil {
				t.Fatalf("%s legacy run: %v", tc.name, err)
			}
			got, err := New(cal).Run(tc.circuit, trials, rng.New(77))
			if err != nil {
				t.Fatalf("%s run: %v", tc.name, err)
			}
			if !countsEqual(want, got) {
				t.Errorf("%s (%d trials): Counts differ from engineLegacy", tc.name, trials)
			}
		}
	}
}

// TestLazyEntryTapeBitIdentical replays every root-to-leaf path of the
// plan built on the lazy register, once earlier Runs have grown its
// forks, against the full register, through
// the legacy loop's calls at each step's local qubits: every recorded
// threshold (Pauli rate, Kraus weight and total, P(1)) must match the
// full register's bit for bit, and each leaf's bits must be the path's
// outcomes. Counts identity only notices a numeric slip when some draw
// lands between the two values; this sees the last bit of every branch
// probability the engine compares a uniform against.
func TestLazyEntryTapeBitIdentical(t *testing.T) {
	cases := append(fixedEntryCases(), fixedDropCases()...)
	for seed := uint64(1); seed <= 12; seed++ {
		cases = append(cases, dropCase{name: fmt.Sprintf("random-%d", seed), circuit: randomDropCircuit(seed)})
	}
	grey := workloads.Greycode("101101001011").Circuit.Remap(benchPath[:12], 14)
	cases = append(cases, dropCase{name: "greycode-12", circuit: grey})
	for _, tc := range cases {
		m := New(calFor(tc))
		prog, err := m.getProgram(tc.circuit)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		plan := m.planFor(prog)
		if plan == nil {
			t.Fatalf("%s: no plan", tc.name)
		}
		growPlan(t, m, tc.circuit, 300)
		for _, leaf := range plan.leaves {
			checkPathOnFullRegister(t, tc.name, prog, leaf)
		}
	}
}

// checkPathOnFullRegister runs the schedule on the full register along
// the root-to-leaf path: at each draw it takes the branch the path takes
// (the recorded branch of a tape entry, the child on the path at a fork)
// and requires the entry's operands to equal the full register's.
func checkPathOnFullRegister(t *testing.T, name string, prog *program, leaf *treeNode) {
	t.Helper()
	type draw struct {
		e      tapeEntry
		branch int
	}
	var draws []draw
	path := pathNodes(leaf)
	for i, n := range path {
		for _, e := range n.tape {
			k := 0
			if e.op == tapeChoose1 || e.op == tapeMeas1 {
				k = 1
			}
			draws = append(draws, draw{e, k})
		}
		if !n.isLeaf() {
			k := 0
			if n.children[1] == path[i+1] {
				k = 1
			}
			draws = append(draws, draw{n.fork, k})
		}
	}
	next := func(i int) draw {
		t.Helper()
		if len(draws) == 0 {
			t.Fatalf("%s leaf %d: step %d draws past the path's end", name, leaf.id, i)
		}
		d := draws[0]
		draws = draws[1:]
		if int(d.e.step) != i {
			t.Fatalf("%s leaf %d: draw recorded at step %d, full register draws at step %d", name, leaf.id, d.e.step, i)
		}
		return d
	}
	same := func(i int, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s leaf %d step %d: %s %v, full register %v", name, leaf.id, i, what, got, want)
		}
	}
	s := statevec.NewState(prog.nLocal)
	bits := make([]int, prog.numClbits)
	for i := range prog.steps {
		st := &prog.steps[i]
		switch st.kind {
		case stepU1, stepU2:
			applyUnitaryStep(s, st, st.q0, st.q1)
		case stepPauli1, stepPauli2:
			if st.p > 0 {
				same(i, "Pauli rate", next(i).e.a, st.p)
			}
		case stepDamp:
			for _, ch := range st.damp {
				ks := ch.ks
				if ks == nil {
					continue
				}
				var probs [2]float64
				s.KrausBranchProbs1Q(ks, st.q0, probs[:])
				d := next(i)
				same(i, "Kraus weight", d.e.a, probs[0])
				same(i, "Kraus total", d.e.b, probs[0]+probs[1])
				s.ApplyKrausBranch1Q(ks, st.q0, d.branch, probs[d.branch])
			}
		case stepMeasure:
			p1 := s.ProbabilityOne(st.q0)
			d := next(i)
			same(i, "P(1)", d.e.a, p1)
			s.Project(st.q0, d.branch)
			bits[st.cbit] = d.branch
		}
	}
	if len(draws) != 0 {
		t.Fatalf("%s leaf %d: %d draws left after the schedule", name, leaf.id, len(draws))
	}
	for cb, b := range bits {
		if leaf.domBits[cb] != b {
			t.Fatalf("%s leaf %d: bit %d = %d, full register %d", name, leaf.id, cb, leaf.domBits[cb], b)
		}
	}
}

// TestLazyEntryBatchDispatch pins the batched replay's unitary dispatch
// to applyUnitaryStep lane by lane, bit for bit, for every unitary step
// of the entry cases at its place on the register: applyUnitaryStepBatch
// for the steps that are not diagonal, and the pending update setDiag
// makes of each diagonal step — with one or both qubits outside
// included. TestLazyEntryTapeBitIdentical pins applyUnitaryStep to the
// full register, so together they pin the batched replay's unitary
// dispatch, whose slips the Counts identity would only see through a
// flipped draw.
func TestLazyEntryBatchDispatch(t *testing.T) {
	r := rng.New(31)
	for _, tc := range fixedEntryCases() {
		prog, err := New(calFor(tc)).getProgram(tc.circuit)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		for i, reg := range registerSchedule(prog) {
			st := &prog.steps[i]
			if st.kind != stepU1 && st.kind != stepU2 {
				continue
			}
			w := int(reg.width)
			for _, e := range reg.enter {
				if e >= 0 {
					w++
				}
			}
			q0, q1 := int(reg.q0), int(reg.q1)
			b := statevec.GetBatch(w, 3)
			lanes := make([]*statevec.State, 3)
			for k := range lanes {
				lanes[k] = denseState(w, r)
				b.PushLane(lanes[k])
			}
			d := make([]statevec.Diag, 1)
			if setDiag(&d[0], st, q0, q1) {
				for k := range lanes {
					b.Lane(k).ApplyDiags(d)
				}
			} else {
				applyUnitaryStepBatch(b, st, q0, q1)
			}
			for k, s := range lanes {
				applyUnitaryStep(s, st, q0, q1)
				for a := uint64(0); a < 1<<uint(w); a++ {
					got, want := b.Lane(k).Amplitude(a), s.Amplitude(a)
					if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
						math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
						t.Fatalf("%s step %d (q0 %d, q1 %d) lane %d: amplitude %d = %v, single state %v",
							tc.name, i, q0, q1, k, a, got, want)
					}
				}
			}
			b.Release()
		}
	}
}

// denseState returns a w-qubit state with every amplitude nonzero:
// random U3 rotations on each qubit, then a CX chain.
func denseState(w int, r *rng.RNG) *statevec.State {
	s := statevec.NewState(w)
	for q := 0; q < w; q++ {
		s.Apply1Q(circuit.Matrix1Q(circuit.U3, []float64{r.Float64() * 3, r.Float64() * 6, r.Float64() * 6}), q)
	}
	for q := 0; q+1 < w; q++ {
		s.Apply2Q(circuit.Matrix2Q(circuit.CX), q, q+1)
	}
	return s
}

// TestLazyEntryMatchesExact checks the default engine against an
// absolute oracle. engineLegacy shares its kernels with the lazy
// register, so a kernel mistake would pass the identity test; the
// density-matrix engine shares none of them. A grey-code decoder on a
// melbourne path brings its qubits in one CX at a time, most of them
// after idle damping outside the register. The bound is the expected
// sampling TV over K outcomes, 0.5*sqrt(K/N), plus a McDiarmid margin
// sqrt(ln(1e6)/(2N)) that a correct engine exceeds with probability
// below 1e-6.
func TestLazyEntryMatchesExact(t *testing.T) {
	const trials = 20000
	m := noisyMachine(11)
	w := workloads.Greycode("01100")
	exe := w.Circuit.Remap(benchPath[:5], 14)
	prog, err := m.getProgram(exe)
	if err != nil {
		t.Fatal(err)
	}
	if sp, _ := m.selectStab(prog); sp != nil {
		t.Fatal("routed to the stabilizer engine; the oracle must check the statevector")
	}
	late := 0
	for _, r := range registerSchedule(prog) {
		if r.enter[0] >= 0 && r.width >= 2 {
			late++
		}
	}
	if late < 2 {
		t.Fatalf("only %d qubits enter a register of width >= 2; the chain does not enter late", late)
	}
	exact, err := m.ExactDist(exe)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.RunDist(exe, trials, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	k := float64(int(1) << uint(prog.numClbits))
	bound := 0.5*math.Sqrt(k/trials) + math.Sqrt(math.Log(1e6)/(2*trials))
	if tv := got.TV(exact); tv > bound {
		t.Fatalf("default engine vs ExactDist: TV = %.4f > %.4f\ntraj:  %v\nexact: %v", tv, bound, got, exact)
	}
}
