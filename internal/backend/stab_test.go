package backend

import (
	"strings"
	"testing"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/rng"
)

// cliffordMachine builds a machine on a Linear(n) device with the
// Clifford-clean heavy-hex noise profile: stochastic Pauli and readout
// errors only, no damping and no coherent terms, so every compiled
// schedule is fully Clifford.
func cliffordMachine(n int, seed uint64) *Machine {
	return New(device.Generate(device.Linear(n), device.HeavyHexProfile(), rng.New(seed)))
}

// randomCliffordChain builds a physical circuit on a Linear(n) device
// out of Clifford gates only, ending in a full measurement.
func randomCliffordChain(n int, r *rng.RNG) *circuit.Circuit {
	c := circuit.New(n, n)
	oneQ := []func(q int){
		func(q int) { c.H(q) },
		func(q int) { c.S(q) },
		func(q int) { c.Sdg(q) },
		func(q int) { c.X(q) },
		func(q int) { c.Y(q) },
		func(q int) { c.Z(q) },
	}
	depth := 12 + r.Intn(20)
	for i := 0; i < depth; i++ {
		switch r.Intn(4) {
		case 0, 1:
			oneQ[r.Intn(len(oneQ))](r.Intn(n))
		default:
			if n < 2 {
				oneQ[r.Intn(len(oneQ))](0)
				continue
			}
			q := r.Intn(n - 1)
			if r.Intn(2) == 0 {
				c.CX(q, q+1)
			} else {
				c.CZ(q, q+1)
			}
		}
	}
	c.MeasureAll()
	return c
}

// assertSameCounts fails unless the two histograms are byte-identical.
func assertSameCounts(t *testing.T, label string, nbits int, want, got interface {
	Total() int
	Count(bitstr.BitString) int
}) {
	t.Helper()
	if want.Total() != got.Total() {
		t.Fatalf("%s: totals differ: %d vs %d", label, want.Total(), got.Total())
	}
	for v := uint64(0); v < uint64(1)<<uint(nbits); v++ {
		b := bitstr.New(v, nbits)
		if want.Count(b) != got.Count(b) {
			t.Fatalf("%s: histogram differs at %v: %d vs %d", label, b, want.Count(b), got.Count(b))
		}
	}
}

// TestStabilizerByteIdentity is the acceptance property: on random
// Clifford(+Pauli noise) circuits the default engine runs every trial
// on the tableau and produces histograms byte-identical to both
// statevector reference engines, at serial and striped trial counts.
// Run with -race and GOMAXPROCS=1 in CI.
func TestStabilizerByteIdentity(t *testing.T) {
	ResetEngineStats()
	r := rng.New(977)
	for n := 2; n <= 12; n++ {
		c := randomCliffordChain(n, r.DeriveN("circuit", n))
		// Three machines over the same calibration so program caches
		// don't alias engines.
		auto := cliffordMachine(n, uint64(n))
		sv := cliffordMachine(n, uint64(n))
		sv.engine = engineStatevector
		legacy := cliffordMachine(n, uint64(n))
		legacy.engine = engineLegacy
		for _, trials := range []int{97, 600} { // below and above parallelThreshold
			seed := uint64(1000*n + trials)
			want, err := sv.Run(c, trials, rng.New(seed))
			if err != nil {
				t.Fatalf("n=%d statevector: %v", n, err)
			}
			before := EngineStatsSnapshot().StabTrials
			got, err := auto.Run(c, trials, rng.New(seed))
			if err != nil {
				t.Fatalf("n=%d auto: %v", n, err)
			}
			if ran := EngineStatsSnapshot().StabTrials - before; ran != int64(trials) {
				t.Fatalf("n=%d: default engine ran %d of %d trials on the tableau", n, ran, trials)
			}
			assertSameCounts(t, "auto vs statevector", n, want, got)
			leg, err := legacy.Run(c, trials, rng.New(seed))
			if err != nil {
				t.Fatalf("n=%d legacy: %v", n, err)
			}
			assertSameCounts(t, "legacy vs statevector", n, want, leg)
		}
	}
	s := EngineStatsSnapshot()
	if s.StabPrograms == 0 {
		t.Fatalf("stabilizer engine never engaged: %+v", s)
	}
	if s.StabFallbacks != 0 {
		t.Fatalf("unexpected stabilizer fallbacks on Clifford-clean circuits: %+v", s)
	}
}

// ghzOnTopo builds a GHZ-style state over every qubit of a coupling
// map: H on qubit 0, then a CX along each BFS spanning-tree edge, then
// measurement of the first `measured` qubits in BFS order (the
// histogram key caps at bitstr.MaxBits classical bits). It panics on a
// disconnected topology — all shipped devices are connected.
func ghzOnTopo(topo *device.Topology, measured int) *circuit.Circuit {
	c := circuit.New(topo.Qubits, measured)
	visited := make([]bool, topo.Qubits)
	queue := []int{0}
	visited[0] = true
	order := []int{}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		order = append(order, q)
		for _, nb := range topo.Neighbors(q) {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(order) != topo.Qubits {
		panic("ghzOnTopo: disconnected topology")
	}
	// The BFS order is not a coupling path, so entangle along tree
	// edges: each qubit gets a CX from an already-visited neighbor.
	c.H(0)
	done := make([]bool, topo.Qubits)
	done[0] = true
	for _, q := range order[1:] {
		prev := -1
		for _, nb := range topo.Neighbors(q) {
			if done[nb] {
				prev = nb
				break
			}
		}
		if prev < 0 {
			panic("ghzOnTopo: no entangled neighbor")
		}
		c.CX(prev, q)
		done[q] = true
	}
	for i := 0; i < measured; i++ {
		c.Measure(order[i], i)
	}
	return c
}

// TestStabilizerWideDevice runs a 127-qubit heavy-hex GHZ-style chain
// end to end — far beyond the statevector width limit — and checks that
// the statevector-pinned engine refuses the same program.
func TestStabilizerWideDevice(t *testing.T) {
	topo := device.HeavyHexEagle127()
	cal := device.Generate(topo, device.HeavyHexProfile(), rng.New(7))
	m := New(cal)
	c := ghzOnTopo(topo, 48)

	counts, err := m.Run(c, 400, rng.New(12))
	if err != nil {
		t.Fatalf("127-qubit stabilizer run: %v", err)
	}
	if counts.Total() != 400 {
		t.Fatalf("dropped trials: %d of 400", counts.Total())
	}

	pinned := New(cal)
	pinned.engine = engineStatevector
	if _, err := pinned.Run(c, 10, rng.New(12)); err == nil || !strings.Contains(err.Error(), "exceed simulator limit") {
		t.Fatalf("statevector-pinned on 127 qubits: err = %v, want width error", err)
	}
}

// TestStabilizerSnapshotPrefix checks the deterministic-prefix
// snapshot: a circuit whose leading steps are draw-free unitaries must
// produce the same counts as a machine whose analysis starts cold, and
// the plan must actually absorb the prefix.
func TestStabilizerSnapshotPrefix(t *testing.T) {
	m := cliffordMachine(4, 3)
	c := circuit.New(4, 4)
	c.H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	prog, err := m.getProgram(c)
	if err != nil {
		t.Fatal(err)
	}
	a := m.stabFor(prog)
	if a.plan == nil {
		t.Fatalf("Clifford-clean program not converted (prefix %d of %d)", a.prefixLen, len(prog.steps))
	}
	if a.plan.snapSteps == 0 {
		t.Fatal("deterministic prefix snapshot absorbed no steps")
	}
	// Identity against the statevector engine on the same calibration.
	sv := cliffordMachine(4, 3)
	sv.engine = engineStatevector
	want, err := sv.Run(c, 500, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run(c, 500, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounts(t, "snapshot vs statevector", 4, want, got)
}

// TestCompileRejectsTooManyClbits: the histogram key is a uint64, so a
// program measuring more than bitstr.MaxBits classical bits must be
// rejected at compile time (bitstr.New would panic mid-trial).
func TestCompileRejectsTooManyClbits(t *testing.T) {
	topo := device.HeavyHexEagle127()
	m := New(device.Generate(topo, device.HeavyHexProfile(), rng.New(2)))
	c := circuit.New(topo.Qubits, bitstr.MaxBits+1)
	for q := 0; q <= bitstr.MaxBits; q++ {
		c.H(q)
	}
	for q := 0; q <= bitstr.MaxBits; q++ {
		c.Measure(q, q)
	}
	if _, err := m.Run(c, 10, rng.New(3)); err == nil || !strings.Contains(err.Error(), "classical bits") {
		t.Fatalf("compile with %d clbits: err = %v, want classical-bit limit error", bitstr.MaxBits+1, err)
	}
}
