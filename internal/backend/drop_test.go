package backend

import (
	"fmt"
	"testing"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/rng"
)

// dropCase is a circuit that exercises terminal-measurement dropping
// only partly, or down to an empty register. dropCbits lists, per
// classical bit, whether its measurement must drop the qubit; keptBy is
// the kind of later step that keeps a non-dropping one (crosstalk ZZ is
// a stepU2, barrier idle damping a stepDamp).
type dropCase struct {
	name      string
	circuit   *circuit.Circuit
	dropCbits map[int]bool
	keptBy    stepKind
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
		{"crosstalk-after-measure", crosstalk, map[int]bool{0: false, 1: true, 2: true}, stepU2},
		{"barrier-after-measure", barrier, map[int]bool{0: false, 1: true, 2: true}, stepDamp},
		{"one-unmeasured", unmeasured, map[int]bool{0: true, 1: true, 2: true}, 0},
		// Every qubit measured at the end: the register shrinks to width 0.
		{"all-measured", benchCircuit(5), map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}, 0},
	}
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
// EngineLegacy must produce byte-equal Counts at 100 (serial) and 2000
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
			legacy.SetTrajectoryEngine(EngineLegacy)
			want, err := legacy.Run(tc.circuit, trials, rng.New(77))
			if err != nil {
				t.Fatalf("%s legacy run: %v", tc.name, err)
			}
			got, err := New(cal).Run(tc.circuit, trials, rng.New(77))
			if err != nil {
				t.Fatalf("%s run: %v", tc.name, err)
			}
			if !countsEqual(want, got) {
				t.Errorf("%s (%d trials): Counts differ from EngineLegacy", tc.name, trials)
			}
		}
	}
}

// TestTerminalDropMarking pins dropSchedule's per-step decisions on the
// hand-built cases: exactly the expected measurements drop (a later
// crosstalk ZZ or barrier idle damping on the measured qubit keeps it),
// every step's qubits sit at their index among the qubits still live,
// and the width falls by one at each drop — to 1 with a qubit left
// unmeasured, to 0 when every qubit is measured.
func TestTerminalDropMarking(t *testing.T) {
	m := noisyMachine(5)
	finalWidth := map[string]int{
		"crosstalk-after-measure": 1, // qubit 0 never drops
		"barrier-after-measure":   1,
		"one-unmeasured":          1,
		"all-measured":            0,
	}
	for _, tc := range fixedDropCases() {
		prog, err := m.getProgram(tc.circuit)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		reg := dropSchedule(prog)
		if len(reg) != len(prog.steps) {
			t.Fatalf("%s: %d placements for %d steps", tc.name, len(reg), len(prog.steps))
		}
		live := make([]bool, prog.nLocal)
		for q := range live {
			live[q] = true
		}
		index := func(q int) int { // register index of local qubit q
			if !live[q] {
				t.Fatalf("%s: step touches dropped local qubit %d", tc.name, q)
			}
			n := 0
			for p := 0; p < q; p++ {
				if live[p] {
					n++
				}
			}
			return n
		}
		width := prog.nLocal
		measured := 0
		for i := range prog.steps {
			st, r := &prog.steps[i], reg[i]
			if int(r.width) != width {
				t.Fatalf("%s step %d: width %d, want %d", tc.name, i, r.width, width)
			}
			if int(r.q0) != index(st.q0) {
				t.Fatalf("%s step %d: q0 at %d, want %d", tc.name, i, r.q0, index(st.q0))
			}
			if (st.kind == stepU2 || st.kind == stepPauli2) && int(r.q1) != index(st.q1) {
				t.Fatalf("%s step %d: q1 at %d, want %d", tc.name, i, r.q1, index(st.q1))
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
			if r.drop {
				live[st.q0] = false
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
		if measured != len(tc.dropCbits) {
			t.Fatalf("%s: %d measurements, want %d", tc.name, measured, len(tc.dropCbits))
		}
		if width != finalWidth[tc.name] {
			t.Fatalf("%s: final register width %d, want %d", tc.name, width, finalWidth[tc.name])
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
