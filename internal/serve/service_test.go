package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"edm/internal/backend"
	"edm/internal/core"
	"edm/internal/device"
	"edm/internal/mapper"
	"edm/internal/memo"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// testConfig is a small, fast service: tiny tier, no timeout.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Shards, cfg.ShardCap = 2, 32
	cfg.MaxConcurrent, cfg.MaxQueue = 2, 8
	cfg.JobTimeout = 0
	return cfg
}

func testSpec() *JobSpec {
	return &JobSpec{Workload: "bv-6", K: 2, Trials: 512, Seed: 7, Policy: "wedm"}
}

func mustService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestRunJobMatchesLibraryPipeline pins the determinism contract over the
// service: the served distribution is bit-identical to running the same
// (calibration window, circuit, policy, seed) through the library
// directly, with no caches in between.
func TestRunJobMatchesLibraryPipeline(t *testing.T) {
	cases := []struct {
		window int
		spec   *JobSpec
		lib    core.Config
	}{
		{0, testSpec(), core.Config{K: 2, Trials: 512, Weighting: core.WeightDivergence}},
		// In window 1 decode24's single best mapping is a re-compiled
		// placement whose layout is also an isomorphic transfer of lower
		// ESP; the k >= 2 pool keeps the transfer, so its head is not the
		// single best. "best" must serve TopK(c, 1), as the library does.
		{1, &JobSpec{Workload: "decode24", Trials: 512, Seed: 7, Policy: "best"}, core.Config{K: 1, Trials: 512}},
	}
	for _, tc := range cases {
		cfg := testConfig()
		cfg.Window = tc.window
		svc := mustService(t, cfg)
		got, err := svc.RunJob(context.Background(), tc.spec)
		if err != nil {
			t.Fatal(err)
		}

		cal, runtimeCal := windowCals(cfg, cfg.Window)
		runner := core.NewRunner(mapper.NewCompiler(cal), backend.New(runtimeCal))
		w, _ := workloads.ByName(tc.spec.Workload)
		res, err := runner.Run(w.Circuit, tc.lib, rng.New(tc.spec.Seed))
		if err != nil {
			t.Fatal(err)
		}
		want := res.Merged.Sorted()
		if len(got.Merged) != len(want) {
			t.Fatalf("%s: outcome counts differ: %d vs %d", tc.spec.Workload, len(got.Merged), len(want))
		}
		for i, o := range want {
			if got.Merged[i].Outcome != o.Value.String() || got.Merged[i].P != o.P {
				t.Fatalf("%s outcome %d: served (%s, %v) vs library (%s, %v)",
					tc.spec.Workload, i, got.Merged[i].Outcome, got.Merged[i].P, o.Value, o.P)
			}
		}
	}
}

// TestRunJobDeterministicAcrossInstances: two independent services (cold
// caches each) serve byte-identical text for the same job — the property
// that makes the CLI-vs-server smoke diff meaningful.
func TestRunJobDeterministicAcrossInstances(t *testing.T) {
	spec := testSpec()
	a := mustService(t, testConfig())
	ra, err := a.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b := mustService(t, testConfig())
	rb, err := b.RunJob(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ra.Text() != rb.Text() {
		t.Fatalf("text differs across instances:\n%s\nvs\n%s", ra.Text(), rb.Text())
	}
	// And a cache hit returns the same bytes as the miss that built it.
	rc, err := a.RunJob(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rc.Text() != ra.Text() {
		t.Fatal("cache hit served different bytes than the original build")
	}
}

// TestConcurrentDuplicateJobsCompileOnce is the tentpole acceptance test:
// N concurrent identical jobs cost exactly one compile (one candidate
// pool build per (circuit fingerprint, generation)) and one tier build.
func TestConcurrentDuplicateJobsCompileOnce(t *testing.T) {
	svc := mustService(t, testConfig())
	const n = 8
	results := make([]*JobResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.RunJob(context.Background(), testSpec())
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if results[i].Text() != results[0].Text() {
			t.Fatalf("job %d served different bytes", i)
		}
	}
	if s := svc.PoolStats(); s.Misses != 1 {
		t.Fatalf("compile pool misses = %d, want exactly 1", s.Misses)
	}
	if s := svc.TierStats(); s.Misses != 1 || s.Hits+s.Waits != n-1 {
		t.Fatalf("tier stats = %+v, want 1 miss and %d hits+waits", s, n-1)
	}
}

// TestRunJobBadSpecs: every malformed payload returns ErrBadJob; nothing
// panics the process.
func TestRunJobBadSpecs(t *testing.T) {
	svc := mustService(t, testConfig())
	cases := []struct {
		name string
		spec *JobSpec
	}{
		{"no source", &JobSpec{Trials: 100}},
		{"two sources", &JobSpec{Workload: "bv-6", Circuit: "qubits 1\n", Trials: 100}},
		{"unknown workload", &JobSpec{Workload: "nope", Trials: 100}},
		{"zero trials", &JobSpec{Workload: "bv-6"}},
		{"trials under k", &JobSpec{Workload: "bv-6", K: 8, Trials: 4}},
		{"trials over cap", &JobSpec{Workload: "bv-6", Trials: MaxTrials + 1}},
		{"negative k", &JobSpec{Workload: "bv-6", K: -1, Trials: 100}},
		{"huge k", &JobSpec{Workload: "bv-6", K: MaxK + 1, Trials: 1 << 19}},
		{"bad policy", &JobSpec{Workload: "bv-6", Trials: 100, Policy: "magic"}},
		{"bad format", &JobSpec{Circuit: "qubits 1\n", Format: "binary", Trials: 100}},
		{"negative uniformity", &JobSpec{Workload: "bv-6", Trials: 100, UniformityFilter: -1}},
		{"garbage circuit", &JobSpec{Circuit: "qubits two\nxyzzy", Trials: 100}},
		{"garbage qasm", &JobSpec{Circuit: "OPENQASM 9;", Format: "qasm", Trials: 100}},
		{"circuit too wide", &JobSpec{Circuit: "qubits 20\ncbits 1\nh 0\nmeasure 0 -> 0\n", Trials: 100}},
	}
	for name, src := range unmeasuredCircuits {
		cases = append(cases, struct {
			name string
			spec *JobSpec
		}{name, &JobSpec{Circuit: src.circuit, Format: src.format, Trials: 100}})
	}
	for name, src := range untouchedCircuits {
		for _, policy := range []string{"edm", "best"} {
			cases = append(cases, struct {
				name string
				spec *JobSpec
			}{name + " " + policy, &JobSpec{Circuit: src.circuit, Format: src.format, Trials: 100, Policy: policy}})
		}
	}
	for name, src := range nonFiniteCircuits {
		cases = append(cases, struct {
			name string
			spec *JobSpec
		}{name, &JobSpec{Circuit: src.circuit, Format: src.format, Trials: 1024}})
	}
	for _, tc := range cases {
		if _, err := svc.RunJob(context.Background(), tc.spec); !errors.Is(err, ErrBadJob) {
			t.Errorf("%s: err = %v, want ErrBadJob", tc.name, err)
		}
	}
}

// nonFiniteCircuits are inline circuits whose gate angles are NaN or
// infinite. Before the parsers rejected them, each one crashed the
// process from a trial worker goroutine at 1024 trials.
var nonFiniteCircuits = map[string]struct{ circuit, format string }{
	"rz(NaN)":       {"qubits 2\ncbits 2\nx 0\nrz(NaN) 0\nmeasure 0 -> 0\nmeasure 1 -> 1\n", "text"},
	"rz(Inf)":       {"qubits 2\ncbits 2\nx 0\nrz(Inf) 0\nmeasure 0 -> 0\nmeasure 1 -> 1\n", "text"},
	"u3(NaN,0,0)":   {"qubits 2\ncbits 2\nx 0\nu3(NaN,0,0) 0\nmeasure 0 -> 0\nmeasure 1 -> 1\n", "text"},
	"qasm rz(nan)":  {"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nx q[0];\nrz(nan) q[0];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n", "qasm"},
	"qasm overflow": {"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nx q[0];\nrz(pi/1e-320) q[0];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n", "qasm"},
}

// unmeasuredCircuits are inline circuits that act on qubits but measure
// none. A job reports measured bits, so each would print an empty
// bitstring, or a bit that nothing wrote.
var unmeasuredCircuits = map[string]struct{ circuit, format string }{
	"no cbits":        {"qubits 2\nh 0\n", "text"},
	"unwritten bit":   {"qubits 2\ncbits 1\nh 0\n", "text"},
	"qasm no measure": {"OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nh q[0];\n", "qasm"},
}

// untouchedCircuits are inline circuits whose ops touch no qubit. The
// mapper has nothing to place for them, and its ensemble and single-best
// paths would fail differently, so each is tried with both policies.
var untouchedCircuits = map[string]struct{ circuit, format string }{
	"no ops":       {"qubits 1\n", "text"},
	"barrier":      {"qubits 2\ncbits 2\nbarrier\n", "text"},
	"qasm barrier": {"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nbarrier q;\n", "qasm"},
}

// TestRunJobEmptyRegisterMessage: a zero-qubit circuit, or one whose ops
// touch no qubit, is refused in plain words, not as a mapper internal
// error.
func TestRunJobEmptyRegisterMessage(t *testing.T) {
	svc := mustService(t, testConfig())
	_, err := svc.RunJob(context.Background(), &JobSpec{Circuit: "qubits 0\n", Trials: 100})
	if !errors.Is(err, ErrBadJob) || !strings.Contains(err.Error(), "empty register") || strings.Contains(err.Error(), "internal error") {
		t.Fatalf("err = %v, want a plain empty-register ErrBadJob", err)
	}
	src := untouchedCircuits["barrier"]
	_, err = svc.RunJob(context.Background(), &JobSpec{Circuit: src.circuit, Trials: 100})
	if !errors.Is(err, ErrBadJob) || !strings.Contains(err.Error(), "no gate or measurement") || strings.Contains(err.Error(), "internal error") {
		t.Fatalf("err = %v, want a plain no-gate-or-measurement ErrBadJob", err)
	}
}

// TestRunJobCancelledWaiterDetaches: a request whose deadline fires while
// the job builds detaches with ctx.Err(); the detached build completes
// and serves the next request from cache.
func TestRunJobCancelledWaiterDetaches(t *testing.T) {
	svc := mustService(t, testConfig())
	spec := &JobSpec{Workload: "qaoa-6", K: 2, Trials: 1 << 17, Seed: 9}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := svc.RunJob(ctx, spec)
	if err == nil {
		t.Skip("job finished inside 1ms; nothing to detach from")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	res, err := svc.RunJob(context.Background(), &JobSpec{Workload: "qaoa-6", K: 2, Trials: 1 << 17, Seed: 9})
	if err != nil {
		t.Fatalf("post-detach job: %v", err)
	}
	if len(res.Merged) == 0 {
		t.Fatal("post-detach job served an empty distribution")
	}
}

// TestAdvanceRecomputesInPlace: advancing the window re-executes cached
// jobs under the new calibration without flushing the tier, and the new
// window's compiler builds its own pool.
func TestAdvanceRecomputesInPlace(t *testing.T) {
	svc := mustService(t, testConfig())
	r0, err := svc.RunJob(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r0.Window != 0 {
		t.Fatalf("window = %d, want 0", r0.Window)
	}
	if w := svc.Advance(); w != 1 {
		t.Fatalf("Advance = %d, want 1", w)
	}
	r1, err := svc.RunJob(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Window != 1 {
		t.Fatalf("post-advance window = %d, want 1", r1.Window)
	}
	ts := svc.TierStats()
	if ts.Misses != 2 || ts.Entries != 1 {
		t.Fatalf("tier stats = %+v, want 2 misses and 1 live entry (in-place upgrade)", ts)
	}
	ps := svc.PoolStats()
	if ps.Misses != 2 {
		t.Fatalf("pool misses = %d, want 2 (one per window)", ps.Misses)
	}
	m := svc.Snapshot(true)
	if m.Recompile != (mapper.RecompileStats{}) || m.Runs != (memo.Stats{}) {
		t.Fatalf("recompile %+v, runs %+v: want both zero on serve", m.Recompile, m.Runs)
	}
	if len(m.TierShard) != svc.tier.Shards() {
		t.Fatalf("snapshot shard count %d", len(m.TierShard))
	}
}

// TestAdvanceMatchesFreshWindow: a service that served windows 0 to 2
// and advanced to window 3 answers every job with the same bytes as a
// service started at window 3. Nothing one window compiled or cached may
// reach the answers of the next.
func TestAdvanceMatchesFreshWindow(t *testing.T) {
	const inline = "qubits 4\ncbits 4\nh 0\ncx 0 1\nrz(0.3) 1\ncx 1 2\ncx 2 3\n" +
		"measure 0 -> 0\nmeasure 1 -> 1\nmeasure 2 -> 2\nmeasure 3 -> 3\n"
	var specs []*JobSpec
	for _, policy := range []string{"edm", "wedm", "best"} {
		for _, w := range []string{"bv-6", "adder", "qaoa-6"} {
			specs = append(specs, &JobSpec{Workload: w, K: 2, Trials: 512, Seed: 7, Policy: policy})
		}
		specs = append(specs, &JobSpec{Circuit: inline, K: 2, Trials: 512, Seed: 7, Policy: policy})
	}
	advanced := mustService(t, testConfig())
	for w := 0; w < 3; w++ {
		for _, spec := range specs {
			if _, err := advanced.RunJob(context.Background(), spec); err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
		}
		advanced.Advance()
	}
	cfg := testConfig()
	cfg.Window = 3
	fresh := mustService(t, cfg)
	for _, spec := range specs {
		got, err := advanced.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fresh.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if got.Window != 3 || got.Text() != ref.Text() || !bytes.Equal(gotJSON, refJSON) {
			t.Errorf("%s %s: advanced service served\n%s%s\nfresh window-3 service served\n%s%s",
				spec.Policy, got.name(), got.Text(), gotJSON, ref.Text(), refJSON)
		}
	}
}

// TestAdvanceDuringJobs: jobs racing window advances each answer from
// exactly one window, with the bytes a fresh service at the window the
// result names serves.
func TestAdvanceDuringJobs(t *testing.T) {
	svc := mustService(t, testConfig())
	spec := func(i int) *JobSpec {
		return &JobSpec{Workload: "bv-6", K: 2, Trials: 256, Seed: uint64(i % 4)}
	}
	const workers, jobs = 4, 8
	got := make([][]*JobResult, workers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				res, err := svc.RunJob(context.Background(), spec(i))
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], res)
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		svc.Advance()
	}
	wg.Wait()
	fresh := map[int]*Service{}
	for _, rs := range got {
		for i, res := range rs {
			ref := fresh[res.Window]
			if ref == nil {
				cfg := testConfig()
				cfg.Window = res.Window
				ref = mustService(t, cfg)
				fresh[res.Window] = ref
			}
			want, err := ref.RunJob(context.Background(), spec(i))
			if err != nil {
				t.Fatal(err)
			}
			if res.Text() != want.Text() {
				t.Fatalf("job %d served\n%sbut a fresh window-%d service serves\n%s", i, res.Text(), res.Window, want.Text())
			}
		}
	}
}

func TestNewServiceValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 0
	if _, err := NewService(cfg); err == nil {
		t.Fatal("zero shards must error")
	}
	cfg = testConfig()
	cfg.MaxConcurrent = 0
	if _, err := NewService(cfg); err == nil {
		t.Fatal("zero concurrency must error")
	}
	cfg = testConfig()
	cfg.Window = -1
	if _, err := NewService(cfg); err == nil {
		t.Fatal("negative window must error")
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), -0.1, 1e300, device.MaxDrift * 2} {
		cfg = testConfig()
		cfg.Drift = d
		if _, err := NewService(cfg); err == nil {
			t.Fatalf("drift %v must error", d)
		}
	}
}
