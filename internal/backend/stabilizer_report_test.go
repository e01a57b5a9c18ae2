package backend

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/rng"
	"edm/internal/stabilizer"
)

// deepCliffordChain builds a dense Clifford circuit on a Linear(n)
// device: `layers` rounds of single-qubit Cliffords followed by a CX
// brick, ending in a full measurement. Deeper than the property-test
// circuits on purpose — the benchmark should measure sustained gate
// throughput, not per-trial setup.
func deepCliffordChain(n, layers int, r *rng.RNG) *circuit.Circuit {
	c := circuit.New(n, n)
	oneQ := []func(q int){
		func(q int) { c.H(q) },
		func(q int) { c.S(q) },
		func(q int) { c.X(q) },
		func(q int) { c.Z(q) },
	}
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			oneQ[r.Intn(len(oneQ))](q)
		}
		for q := l % 2; q+1 < n; q += 2 {
			c.CX(q, q+1)
		}
	}
	c.MeasureAll()
	return c
}

// TestStabilizerBenchReport regenerates BENCH_stabilizer.json (via
// scripts/bench_stabilizer.sh): per-trial throughput of the tableau
// engine against the tape-tree statevector engine (through Machine.Run)
// on Clifford-clean schedules, plus tableau-only throughput on the
// heavy-hex devices no statevector in this process could represent.
// Keeping the measurement in Go lets the report assert Counts
// byte-identity between the engines in the same process that times
// them, and enforce the >= 10x q12 acceptance bar. It skips unless
// EDM_BENCH_STABILIZER_OUT names the output file.
func TestStabilizerBenchReport(t *testing.T) {
	out := os.Getenv("EDM_BENCH_STABILIZER_OUT")
	if out == "" {
		t.Skip("set EDM_BENCH_STABILIZER_OUT to write the stabilizer benchmark report")
	}

	type row struct {
		Case            string  `json:"case"`
		Qubits          int     `json:"qubits"`
		Steps           int     `json:"schedule_steps"`
		Trials          int     `json:"trials"`
		StatevecTrialsS float64 `json:"statevec_trials_per_s,omitempty"`
		StabTrialsS     float64 `json:"stab_trials_per_s"`
		Speedup         float64 `json:"speedup,omitempty"`
		Words           int     `json:"tableau_words"`
		SnapSteps       int     `json:"snapshot_steps"`
		Identical       bool    `json:"counts_identical"`
	}
	report := struct {
		Date       string `json:"date"`
		Go         string `json:"go"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Note       string `json:"note"`
		Headline   string `json:"headline"`
		Rows       []row  `json:"rows"`
	}{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "per-trial execution of fully-Clifford compiled schedules: Aaronson-Gottesman " +
			"tableau engine (DESIGN.md section 13) vs the tape-tree statevector engine " +
			"(the statevector reference engine, timed through Machine.Run) on the same programs; heavy-hex " +
			"rows are tableau-only because the devices exceed the statevector width limit",
	}

	// Head-to-head cases: both engines run the same compiled program.
	for _, tc := range []struct {
		nq, layers, trials int
	}{
		{8, 40, 30000},
		{12, 40, 12000},
	} {
		m := cliffordMachine(tc.nq, uint64(tc.nq))
		c := deepCliffordChain(tc.nq, tc.layers, rng.New(uint64(100+tc.nq)))
		prog, err := m.getProgram(c)
		if err != nil {
			t.Fatal(err)
		}
		sp := m.stabFor(prog).plan
		if sp == nil {
			t.Fatalf("q%d: Clifford-clean schedule not converted", tc.nq)
		}
		// The statevector side runs through Machine.Run on the pinned
		// statevector engine; its first Run builds the tape-tree plan, so
		// the timed Run measures trials only. The tableau side runs the
		// same trials one by one.
		sv := cliffordMachine(tc.nq, uint64(tc.nq))
		sv.engine = engineStatevector
		tab := stabilizer.New(prog.nLocal)
		trueBits := make([]int, prog.numClbits)
		root := rng.New(11)
		stabRun := func(trials int) *dist.Counts {
			counts := dist.NewCounts(prog.numClbits)
			for trial := 0; trial < trials; trial++ {
				counts.Observe(m.runStabTrial(prog, sp, tab, trueBits, root.DeriveN("trial", trial)))
			}
			return counts
		}

		svCounts, err := sv.Run(c, 2000, root)
		if err != nil {
			t.Fatal(err)
		}
		identical := countsEqual(svCounts, stabRun(2000))
		if !identical {
			t.Errorf("q%d: engines disagree on outcome counts", tc.nq)
		}

		start := time.Now()
		if _, err := sv.Run(c, tc.trials, root); err != nil {
			t.Fatal(err)
		}
		svS := float64(tc.trials) / time.Since(start).Seconds()

		start = time.Now()
		stabRun(tc.trials)
		stS := float64(tc.trials) / time.Since(start).Seconds()

		report.Rows = append(report.Rows, row{
			Case:            fmt.Sprintf("clifford/q%d", tc.nq),
			Qubits:          tc.nq,
			Steps:           len(sp.steps),
			Trials:          tc.trials,
			StatevecTrialsS: svS,
			StabTrialsS:     stS,
			Speedup:         stS / svS,
			Words:           (prog.nLocal + 63) / 64,
			SnapSteps:       sp.snapSteps,
			Identical:       identical,
		})
	}

	// Tableau-only cases: heavy-hex GHZ over the full device, beyond the
	// statevector width limit.
	for _, tc := range []struct {
		name   string
		topo   *device.Topology
		trials int
	}{
		{"falcon27", device.HeavyHexFalcon27(), 20000},
		{"eagle127", device.HeavyHexEagle127(), 4000},
	} {
		cal := device.Generate(tc.topo, device.HeavyHexProfile(), rng.New(7))
		m := New(cal)
		measured := tc.topo.Qubits
		if measured > 48 {
			measured = 48
		}
		c := ghzOnTopo(tc.topo, measured)
		prog, err := m.getProgram(c)
		if err != nil {
			t.Fatal(err)
		}
		sp := m.stabFor(prog).plan
		if sp == nil {
			t.Fatalf("%s: heavy-hex GHZ not converted", tc.name)
		}
		tab := stabilizer.New(prog.nLocal)
		trueBits := make([]int, prog.numClbits)
		root := rng.New(11)

		start := time.Now()
		for trial := 0; trial < tc.trials; trial++ {
			m.runStabTrial(prog, sp, tab, trueBits, root.DeriveN("trial", trial))
		}
		stS := float64(tc.trials) / time.Since(start).Seconds()

		report.Rows = append(report.Rows, row{
			Case:        "heavyhex/" + tc.name,
			Qubits:      prog.nLocal,
			Steps:       len(sp.steps),
			Trials:      tc.trials,
			StabTrialsS: stS,
			Words:       (prog.nLocal + 63) / 64,
			SnapSteps:   sp.snapSteps,
			Identical:   true,
		})
	}

	var head *row
	for i := range report.Rows {
		if report.Rows[i].Case == "clifford/q12" {
			head = &report.Rows[i]
		}
	}
	report.Headline = fmt.Sprintf("clifford/q12: %.1fx trials/s vs tape-tree statevector (%.0f vs %.0f)",
		head.Speedup, head.StabTrialsS, head.StatevecTrialsS)
	if head.Speedup < 10 {
		t.Errorf("headline speedup %.1fx below the 10x acceptance bar", head.Speedup)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", report.Headline)
}
