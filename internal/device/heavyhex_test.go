package device

import (
	"math"
	"testing"

	"edm/internal/rng"
)

func checkHeavyHex(t *testing.T, topo *Topology, wantQubits, wantEdges int) {
	t.Helper()
	if topo.Qubits != wantQubits {
		t.Fatalf("%s: %d qubits, want %d", topo.Name, topo.Qubits, wantQubits)
	}
	edges := topo.Edges()
	if len(edges) != wantEdges {
		t.Fatalf("%s: %d edges, want %d", topo.Name, len(edges), wantEdges)
	}
	deg := make([]int, topo.Qubits)
	seen := map[Edge]bool{}
	for _, e := range edges {
		if e.A < 0 || e.B >= topo.Qubits || e.A >= e.B {
			t.Fatalf("%s: malformed edge %v", topo.Name, e)
		}
		if seen[e] {
			t.Fatalf("%s: duplicate edge %v", topo.Name, e)
		}
		seen[e] = true
		deg[e.A]++
		deg[e.B]++
	}
	for q, d := range deg {
		if d < 1 || d > 3 {
			t.Fatalf("%s: qubit %d has degree %d, heavy-hex requires 1..3", topo.Name, q, d)
		}
	}
	for q := 1; q < topo.Qubits; q++ {
		if topo.Distance(0, q) < 0 {
			t.Fatalf("%s: qubit %d disconnected from qubit 0", topo.Name, q)
		}
	}
}

func TestHeavyHexFalcon27(t *testing.T) {
	checkHeavyHex(t, HeavyHexFalcon27(), 27, 28)
}

func TestHeavyHexEagle127(t *testing.T) {
	checkHeavyHex(t, HeavyHexEagle127(), 127, 144)
}

// TestHeavyHexProfileCliffordClean pins the property the stabilizer
// engine depends on: a heavy-hex calibration has no coherent terms and
// no finite damping, before *and after* drift.
func TestHeavyHexProfileCliffordClean(t *testing.T) {
	topo := HeavyHexEagle127()
	cal := Generate(topo, HeavyHexProfile(), rng.New(41))
	if err := cal.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	check := func(c *Calibration, stage string) {
		t.Helper()
		for q := 0; q < topo.Qubits; q++ {
			if c.CohY[q] != 0 || c.CohZ[q] != 0 {
				t.Fatalf("%s: coherent term on qubit %d: CohY=%v CohZ=%v", stage, q, c.CohY[q], c.CohZ[q])
			}
			if !math.IsInf(c.T1us[q], 1) || !math.IsInf(c.T2us[q], 1) {
				t.Fatalf("%s: finite coherence time on qubit %d: T1=%v T2=%v", stage, q, c.T1us[q], c.T2us[q])
			}
			if c.SQErr[q] < 0 || c.Meas01[q] <= 0 || c.Meas10[q] <= 0 {
				t.Fatalf("%s: stochastic rates missing on qubit %d", stage, q)
			}
		}
		for _, e := range topo.Edges() {
			if c.CXCohZZ[e] != 0 || c.CrossZZ[e] != 0 {
				t.Fatalf("%s: coherent term on edge %v", stage, e)
			}
			if c.CXErr[e] <= 0 {
				t.Fatalf("%s: zero CXErr on edge %v", stage, e)
			}
		}
	}
	check(cal, "generated")
	check(cal.Drift(0.2, rng.New(42)), "drifted")
	check(cal.DriftLocal(5, 5, 0.5, 0.01, rng.New(43)), "locally drifted")
}

// TestDriftGatingPreservesNonzeroFields guards the other side of the
// zero-gating: on a device whose coherent fields are all nonzero
// (Melbourne's magnitude floor guarantees it), drift must still move
// every coherent field, with the same draws as before the gating.
func TestDriftGatingPreservesNonzeroFields(t *testing.T) {
	cal := Generate(Melbourne(), MelbourneProfile(), rng.New(5))
	drifted := cal.Drift(0.3, rng.New(6))
	for q := range cal.CohY {
		if cal.CohY[q] == 0 || cal.CohZ[q] == 0 {
			t.Fatalf("melbourne coherent field zero on qubit %d (floor broken)", q)
		}
		if drifted.CohY[q] == cal.CohY[q] || drifted.CohZ[q] == cal.CohZ[q] {
			t.Fatalf("drift left coherent field unchanged on qubit %d", q)
		}
	}
	for _, e := range cal.Topo.Edges() {
		if drifted.CXCohZZ[e] == cal.CXCohZZ[e] || drifted.CrossZZ[e] == cal.CrossZZ[e] {
			t.Fatalf("drift left coherent field unchanged on edge %v", e)
		}
	}
}

func TestByName(t *testing.T) {
	cases := []struct {
		name   string
		qubits int
	}{
		{"", 14}, {"melbourne", 14}, {"tokyo", 20}, {"falcon27", 27}, {"eagle127", 127},
	}
	for _, c := range cases {
		topo, prof, err := ByName(c.name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", c.name, err)
		}
		if topo.Qubits != c.qubits {
			t.Fatalf("ByName(%q): %d qubits, want %d", c.name, topo.Qubits, c.qubits)
		}
		if prof.Gate2QNs <= 0 {
			t.Fatalf("ByName(%q): empty profile", c.name)
		}
	}
	if _, _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName(bogus) succeeded")
	}
}
