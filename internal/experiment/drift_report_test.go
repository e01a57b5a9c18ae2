package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestDriftBenchReport regenerates BENCH_drift.json: the drifting
// campaign (DefaultDriftSetup, Figure 13 workload set) compiled through
// drift-tracked pools (DESIGN.md §11) against compiling every window
// from scratch. It is the engine behind scripts/bench_drift.sh and skips
// unless EDM_BENCH_DRIFT_OUT names the output file.
//
// Each campaign runs driftBenchRuns times, alternating. Acceptance bars
// recorded in the report:
//   - the median tracked campaign's steady-state compile time (cycles
//     >= 1; cycle 0 is the cold build both campaigns pay) is >= 2x
//     faster than the median from-scratch one;
//   - on every run, cells (PSTs, ISTs, output-distribution
//     fingerprints) are bit-identical between the two campaigns;
//   - per-round pool survival is reported.
func TestDriftBenchReport(t *testing.T) {
	out := os.Getenv("EDM_BENCH_DRIFT_OUT")
	if out == "" {
		t.Skip("set EDM_BENCH_DRIFT_OUT=path to generate BENCH_drift.json")
	}

	s := DefaultDriftSetup()
	var fulls, tracks []DriftResult
	identical := true
	for i := 0; i < driftBenchRuns; i++ {
		ResetCampaignCaches()
		full := runDrifting(s, false)
		ResetCampaignCaches()
		res := RunDrifting(s)
		if !reflect.DeepEqual(cellsOf(res), cellsOf(full)) {
			identical = false
			t.Errorf("run %d: tracked cells differ from compiling every window from scratch", i)
		}
		fulls, tracks = append(fulls, full), append(tracks, res)
	}
	full, res := medianSteady(fulls), medianSteady(tracks)
	var survival []float64
	for _, rd := range res.Rounds[1:] {
		survival = append(survival, rd.Recompile.Survival())
	}
	speedup := full.CompileMsSteady / res.CompileMsSteady
	if speedup < 2 {
		t.Errorf("median steady-state speedup %.2fx < 2x acceptance bar (from scratch %.1fms)",
			speedup, full.CompileMsSteady)
	}
	steady := func(rs []DriftResult) []float64 {
		var ms []float64
		for _, r := range rs {
			ms = append(ms, r.CompileMsSteady)
		}
		return ms
	}

	report := map[string]any{
		"description": "drifting campaign (DESIGN.md §11): drift-tracked pools vs compiling every window from scratch",
		"setup": map[string]any{
			"seed": s.Seed, "cycles": s.Cycles, "trials": s.Trials, "k": s.K,
			"hit_qubits": hitQubits, "hit_edges": hitEdges,
			"scale": driftScale, "jitter": driftJitter, "drift": s.Drift,
			"workloads": s.Workloads,
		},
		"runs": driftBenchRuns,
		"from_scratch_compile_ms": map[string]any{
			"steady": full.CompileMsSteady, "total": full.CompileMsTotal,
			"steady_per_run": steady(fulls),
		},
		"tracked": map[string]any{
			"steady_compile_ms":               res.CompileMsSteady,
			"total_compile_ms":                res.CompileMsTotal,
			"steady_per_run":                  steady(tracks),
			"steady_speedup_vs_from_scratch":  fmt.Sprintf("%.2fx", speedup),
			"pool_survival_per_round":         survival,
			"cells_identical_to_from_scratch": identical,
			"recompile_stats":                 res.Stats,
		},
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil && filepath.Dir(out) != "." {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("median from scratch steady %.1fms; median tracked steady %.1fms (%.2fx)",
		full.CompileMsSteady, res.CompileMsSteady, speedup)
}

// driftBenchRuns is how many times TestDriftBenchReport runs each
// campaign: one run's steady compile time swings too far for the 2x bar
// to judge.
const driftBenchRuns = 3

// medianSteady returns the run whose steady-state compile time is the
// median of an odd number of runs.
func medianSteady(rs []DriftResult) DriftResult {
	sorted := append([]DriftResult(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].CompileMsSteady < sorted[j].CompileMsSteady })
	return sorted[len(sorted)/2]
}
