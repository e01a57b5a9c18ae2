package backend

import (
	"fmt"
	"testing"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/rng"
	"edm/internal/statevec"
)

// dropCase is a circuit that exercises the register schedule: terminal
// measurements dropping only partly or down to an empty register, or
// qubits entering late. dropCbits lists, per classical bit, whether its
// measurement must drop the qubit; keptBy is the kind of later step that
// keeps a non-dropping qubit in the register (crosstalk ZZ is a stepU2,
// barrier idle damping a stepDamp); width is the register width after
// the last step; shows names a schedule feature the case must exhibit
// (see TestTerminalDropMarking); tweak, when set, edits the calibration
// the case runs on.
type dropCase struct {
	name      string
	circuit   *circuit.Circuit
	dropCbits map[int]bool
	keptBy    stepKind
	width     int
	shows     string
	tweak     func(*device.Calibration)
}

// fixedDropCases returns the hand-built cases on melbourne qubits.
func fixedDropCases() []dropCase {
	// A mid-circuit measurement of qubit 0, then a CX on (1, 2): its
	// crosstalk ZZ reaches the measured qubit 0 through the (0, 1) link,
	// so that measurement is not terminal.
	crosstalk := circuit.New(14, 3)
	crosstalk.H(0).CX(0, 1).Measure(0, 0).CX(1, 2).H(2).Measure(1, 1).Measure(2, 2)

	// Qubit 0 is measured first; the CXs on the far-away pair (5, 6) run
	// past its measurement window, so the barrier idles it — idle damping
	// on a measured qubit, which keeps its measurement from dropping.
	barrier := circuit.New(14, 3)
	barrier.H(0).Measure(0, 0).H(5)
	for i := 0; i < 5; i++ {
		barrier.CX(5, 6)
	}
	barrier.Barrier(0, 5, 6).Measure(5, 1).Measure(6, 2)

	// A GHZ chain with its last qubit left unmeasured: the register never
	// drops below one qubit.
	unmeasured := circuit.New(14, 3)
	unmeasured.H(0).CX(0, 1).CX(1, 2).CX(2, 3).Measure(0, 0).Measure(1, 1).Measure(2, 2)

	return []dropCase{
		{name: "crosstalk-after-measure", circuit: crosstalk, dropCbits: map[int]bool{0: false, 1: true, 2: true}, keptBy: stepU2, width: 1},
		{name: "barrier-after-measure", circuit: barrier, dropCbits: map[int]bool{0: false, 1: true, 2: true}, keptBy: stepDamp, width: 1},
		{name: "one-unmeasured", circuit: unmeasured, dropCbits: map[int]bool{0: true, 1: true, 2: true}, width: 1},
		// Every qubit measured at the end: the register shrinks to width 0.
		{name: "all-measured", circuit: benchCircuit(5), dropCbits: map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}},
	}
}

// fixedEntryCases returns hand-built cases on melbourne qubits whose
// qubits meet steps before they enter the register.
func fixedEntryCases() []dropCase {
	all := func(n int) map[int]bool {
		m := make(map[int]bool, n)
		for cb := 0; cb < n; cb++ {
			m[cb] = true
		}
		return m
	}
	// CX(1, 2) fires while qubit 0 is still |0>: its crosstalk ZZ on the
	// (0, 1) link acts on a qubit outside the register. Qubit 0's first
	// gate is a CX, which no 1Q gate can fuse into the ZZ.
	crosstalk := circuit.New(14, 3)
	crosstalk.H(1).CX(1, 2).CX(1, 0).Measure(0, 0).Measure(1, 1).Measure(2, 2)

	// The barrier idles qubit 2 before its first gate: idle damping and
	// RZ drift on a qubit outside the register.
	barrier := circuit.New(14, 3)
	barrier.H(0).CX(0, 1).CX(0, 1).Barrier(0, 1, 2).H(2).CX(1, 2).Measure(0, 0).Measure(1, 1).Measure(2, 2)

	// Qubit 3's first gate is an RZ, diagonal once its coherent Y error is
	// zeroed: it stays outside until the gate's Pauli step, where an X or
	// Y error could flip it.
	rz := circuit.New(14, 2)
	rz.RZ(3, 0.7).H(2).CX(2, 3).Measure(2, 0).Measure(3, 1)

	// Qubit 2 is measured without any gate: it never enters, and its
	// measurement observes 0 and only renormalizes.
	bare := circuit.New(14, 3)
	bare.H(0).CX(0, 1).Measure(0, 0).Measure(1, 1).Measure(2, 2)

	// With their coherent Y errors zeroed, CZs stay diagonal. CZ(2, 3)
	// opens the circuit with both qubits outside, and its Pauli step
	// brings in two qubits at once. Qubit 0 idles through H(1), and the
	// idle RZ drift fuses into CZ(0, 1): an asymmetric diagonal whose q0
	// is outside.
	cz := circuit.New(14, 4)
	cz.CZ(2, 3).H(1).CZ(0, 1).H(0).H(2).Measure(0, 0).Measure(1, 1).Measure(2, 2).Measure(3, 3)

	// A CX chain along a melbourne path brings in one qubit per gate.
	chain := circuit.New(14, 5)
	chain.X(0).CX(0, 1).CX(1, 13).CX(13, 12).CX(12, 2)
	for i, q := range []int{0, 1, 13, 12, 2} {
		chain.Measure(q, i)
	}

	return []dropCase{
		{name: "crosstalk-before-entry", circuit: crosstalk, dropCbits: all(3), shows: "outside-zz"},
		{name: "barrier-before-entry", circuit: barrier, dropCbits: all(3), shows: "outside-damp"},
		{name: "rz-then-pauli", circuit: rz, dropCbits: all(2), shows: "pauli-entry",
			tweak: func(cal *device.Calibration) { cal.CohY[3] = 0 }},
		{name: "measured-without-gate", circuit: bare, dropCbits: map[int]bool{0: true, 1: true, 2: false}, shows: "outside-measure"},
		{name: "cz-before-entry", circuit: cz, dropCbits: all(4), shows: "outside-q0-diag",
			tweak: func(cal *device.Calibration) {
				for q := 0; q < 4; q++ {
					cal.CohY[q] = 0
				}
			}},
		{name: "cx-chain", circuit: chain, dropCbits: all(5), shows: "one-per-cx"},
	}
}

// calFor returns the melbourne calibration a schedule case runs on: the
// seed-5 draw, edited by the case's tweak.
func calFor(tc dropCase) *device.Calibration {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	if tc.tweak != nil {
		tc.tweak(cal)
	}
	return cal
}

// dropRegion is a connected patch of melbourne for the random cases.
var (
	dropRegion = []int{0, 1, 2, 3, 4, 12, 13}
	dropEdges  = [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 13}, {2, 12}, {12, 13}}
)

// randomDropCircuit builds a seeded random circuit on dropRegion with
// measurements at random points: gates only ever act on qubits not yet
// measured (the compiler rejects anything else), barriers span random
// qubits measured or not, and each qubit still unmeasured at the end is
// measured with probability 3/4.
func randomDropCircuit(seed uint64) *circuit.Circuit {
	r := rng.New(seed)
	c := circuit.New(14, len(dropRegion))
	measured := make([]bool, 14)
	cb := 0
	measure := func(q int) {
		c.Measure(q, cb)
		cb++
		measured[q] = true
	}
	for op := 0; op < 40; op++ {
		switch x := r.Intn(10); {
		case x < 4:
			if q := dropRegion[r.Intn(len(dropRegion))]; !measured[q] {
				switch r.Intn(3) {
				case 0:
					c.H(q)
				case 1:
					c.RY(q, r.Float64()*3)
				default:
					c.RZ(q, r.Float64()*3)
				}
			}
		case x < 7:
			if e := dropEdges[r.Intn(len(dropEdges))]; !measured[e[0]] && !measured[e[1]] {
				c.CX(e[0], e[1])
			}
		case x < 8:
			if q := dropRegion[r.Intn(len(dropRegion))]; !measured[q] {
				measure(q)
			}
		default:
			var qs []int
			for _, q := range dropRegion {
				if r.Intn(2) == 0 {
					qs = append(qs, q)
				}
			}
			if len(qs) > 0 {
				c.Barrier(qs...)
			}
		}
	}
	for _, q := range dropRegion {
		if !measured[q] && r.Intn(4) != 0 {
			measure(q)
		}
	}
	return c
}

// TestTerminalDropIdentity pins the dropping engine to the full-register
// oracle on circuits where dropping happens only partly or runs the
// register down to width 0: the default engine (batched replay) and
// engineLegacy must produce byte-equal Counts at 100 (serial) and 2000
// (parallel) trials. ci.sh runs it in both the trajectory-engine and
// batched-replay gates.
func TestTerminalDropIdentity(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	cases := fixedDropCases()
	for seed := uint64(1); seed <= 6; seed++ {
		cases = append(cases, dropCase{name: fmt.Sprintf("random-%d", seed), circuit: randomDropCircuit(seed)})
	}
	for _, tc := range cases {
		probe := New(cal)
		prog, err := probe.getProgram(tc.circuit)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		if sp, _ := probe.selectStab(prog); sp != nil {
			t.Fatalf("%s: routed to the stabilizer engine; the case must exercise the statevector", tc.name)
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

// TestTerminalDropMarking pins registerSchedule's per-step decisions
// on the hand-built drop and entry cases against an independent walk of
// the schedule:
//
//   - a qubit enters exactly at its first non-diagonal unitary or Pauli
//     step (melbourne's damping never moves |0>), each entering qubit at
//     its final index among the qubits then live, lower index first;
//   - every step's qubits sit at their index among the live qubits, or
//     outside before they enter;
//   - exactly the expected measurements drop: a later crosstalk ZZ or
//     barrier idle damping keeps a measured qubit, and a qubit measured
//     outside the register has nothing to drop;
//   - the width starts at 0, rises by one per entry, falls by one per
//     drop, and ends at the case's width;
//   - each entry case shows the feature it was built for.
func TestTerminalDropMarking(t *testing.T) {
	for _, tc := range append(fixedDropCases(), fixedEntryCases()...) {
		prog, err := New(calFor(tc)).getProgram(tc.circuit)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		reg := registerSchedule(prog)
		if len(reg) != len(prog.steps) {
			t.Fatalf("%s: %d placements for %d steps", tc.name, len(reg), len(prog.steps))
		}
		live := make([]bool, prog.nLocal)
		gone := make([]bool, prog.nLocal)
		index := func(q int) int8 { // register index of local qubit q
			if !live[q] {
				return outside
			}
			n := int8(0)
			for p := 0; p < q; p++ {
				if live[p] {
					n++
				}
			}
			return n
		}
		width, measured, oneEntryCX := 0, 0, 0
		seen := make(map[string]bool)
		for i := range prog.steps {
			st, r := &prog.steps[i], reg[i]
			two := st.kind == stepU2 || st.kind == stepPauli2
			if int(r.width) != width {
				t.Fatalf("%s step %d: width %d, want %d", tc.name, i, r.width, width)
			}
			if st.kind == stepDamp && (!statevec.KrausKeepsZero(st.damp[0].ks) || !statevec.KrausKeepsZero(st.damp[1].ks)) {
				t.Fatalf("%s step %d: melbourne damping moves |0>", tc.name, i)
			}
			qs := []int{st.q0}
			if two {
				qs = append(qs, st.q1)
			}
			var entering []int
			if (st.kind == stepU1 || st.kind == stepU2) && st.class != matDiag ||
				st.kind == stepPauli1 || st.kind == stepPauli2 {
				for _, q := range qs {
					if gone[q] {
						t.Fatalf("%s step %d: touches dropped local qubit %d", tc.name, i, q)
					}
					if !live[q] {
						live[q] = true
						entering = append(entering, q)
					}
				}
			}
			want := [2]int8{-1, -1}
			for k, q := range entering {
				want[k] = index(q)
			}
			if want[1] >= 0 && want[0] > want[1] {
				want[0], want[1] = want[1], want[0]
			}
			if r.enter != want {
				t.Fatalf("%s step %d: enters at %v, want %v", tc.name, i, r.enter, want)
			}
			width += len(entering)
			if r.q0 != index(st.q0) {
				t.Fatalf("%s step %d: q0 at %d, want %d", tc.name, i, r.q0, index(st.q0))
			}
			if two && r.q1 != index(st.q1) {
				t.Fatalf("%s step %d: q1 at %d, want %d", tc.name, i, r.q1, index(st.q1))
			}
			switch {
			case st.kind == stepU2 && st.class == matDiag && r.q0 == outside && r.q1 != outside && st.d4[1] != st.d4[2]:
				seen["outside-q0-diag"] = true
			case st.kind == stepU2 && st.class == matDiag && (r.q0 == outside) != (r.q1 == outside):
				seen["outside-zz"] = true
			case st.kind == stepDamp && r.q0 == outside:
				seen["outside-damp"] = true
			case (st.kind == stepPauli1 || st.kind == stepPauli2) && len(entering) > 0:
				seen["pauli-entry"] = true
			case st.kind == stepU2 && len(entering) == 1:
				oneEntryCX++
			case st.kind == stepU2 && len(entering) == 2:
				seen["two-entries"] = true
			}
			if st.kind != stepMeasure {
				if r.drop {
					t.Fatalf("%s step %d: non-measurement marked drop", tc.name, i)
				}
				continue
			}
			measured++
			if want := tc.dropCbits[st.cbit]; r.drop != want {
				t.Fatalf("%s: measurement of cbit %d drop=%v, want %v", tc.name, st.cbit, r.drop, want)
			}
			if r.q0 == outside {
				seen["outside-measure"] = true
				continue
			}
			if r.drop {
				live[st.q0], gone[st.q0] = false, true
				width--
				continue
			}
			// The case's keptBy kind must be what touches the qubit later;
			// neither a gate nor damping may touch it for another reason.
			kinds := kindsAfter(prog, i, st.q0)
			if !kinds[tc.keptBy] ||
				(kinds[stepU2] && tc.keptBy != stepU2) || (kinds[stepDamp] && tc.keptBy != stepDamp) {
				t.Fatalf("%s: cbit %d kept, later touches %v, want kind %v", tc.name, st.cbit, kinds, tc.keptBy)
			}
		}
		seen["one-per-cx"] = oneEntryCX >= 4 && !seen["two-entries"]
		if measured != len(tc.dropCbits) {
			t.Fatalf("%s: %d measurements, want %d", tc.name, measured, len(tc.dropCbits))
		}
		if width != tc.width {
			t.Fatalf("%s: final register width %d, want %d", tc.name, width, tc.width)
		}
		if tc.shows != "" && !seen[tc.shows] {
			t.Fatalf("%s: schedule does not show %s", tc.name, tc.shows)
		}
	}
}

// TestExactDistRejectsDampingAfterMeasure pins ExactDist's refusal of
// a program whose barrier idles a measured qubit: the density engine
// would read that qubit's population after the idle decay, while every
// trajectory keeps the bit its measurement recorded. A crosstalk ZZ
// after a measurement is diagonal, leaves populations alone and stays
// accepted.
func TestExactDistRejectsDampingAfterMeasure(t *testing.T) {
	m := noisyMachine(11)
	for _, tc := range fixedDropCases() {
		_, err := m.ExactDist(tc.circuit)
		switch tc.name {
		case "barrier-after-measure":
			if err == nil {
				t.Fatalf("%s: ExactDist accepted damping after a measurement", tc.name)
			}
		default:
			if err != nil {
				t.Fatalf("%s: ExactDist: %v", tc.name, err)
			}
		}
	}
}

// kindsAfter returns the kinds of the steps after step i that touch
// local qubit q.
func kindsAfter(prog *program, i, q int) map[stepKind]bool {
	kinds := make(map[stepKind]bool)
	for _, st := range prog.steps[i+1:] {
		if st.q0 == q || ((st.kind == stepU2 || st.kind == stepPauli2) && st.q1 == q) {
			kinds[st.kind] = true
		}
	}
	return kinds
}
