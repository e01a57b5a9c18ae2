package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"edm/internal/backend"
	"edm/internal/core"
	"edm/internal/device"
	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// testConfig is a small, fast service: tiny tier, no TTL, no timeout.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Shards, cfg.ShardCap = 2, 32
	cfg.MaxConcurrent, cfg.MaxQueue = 2, 8
	cfg.TTL, cfg.JobTimeout = 0, 0
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
	cfg := testConfig()
	svc := mustService(t, cfg)
	spec := testSpec()
	got, err := svc.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	cal, runtimeCal := windowCals(cfg, cfg.Window)
	comp := mapper.CachedCompiler(cal)
	mach := backend.New(runtimeCal)
	runner := core.NewRunner(comp, mach)
	w, _ := workloads.ByName("bv-6")
	res, err := runner.Run(w.Circuit, core.Config{K: 2, Trials: 512, Weighting: core.WeightDivergence}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	want := res.Merged.Sorted()
	if len(got.Merged) != len(want) {
		t.Fatalf("outcome counts differ: %d vs %d", len(got.Merged), len(want))
	}
	for i, o := range want {
		if got.Merged[i].Outcome != o.Value.String() || got.Merged[i].P != o.P {
			t.Fatalf("outcome %d: served (%s, %v) vs library (%s, %v)",
				i, got.Merged[i].Outcome, got.Merged[i].P, o.Value, o.P)
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
	for _, tc := range cases {
		if _, err := svc.RunJob(context.Background(), tc.spec); !errors.Is(err, ErrBadJob) {
			t.Errorf("%s: err = %v, want ErrBadJob", tc.name, err)
		}
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
// jobs under the new calibration without flushing the tier, and the
// compiler upgrades its pool instead of starting over.
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
		t.Fatalf("pool misses = %d, want 2 (one per generation)", ps.Misses)
	}
	m := svc.Snapshot(true)
	if m.Recompile.Pools != 1 {
		t.Fatalf("recompile pools = %d, want 1 (upgrade, not rebuild-from-nothing)", m.Recompile.Pools)
	}
	if len(m.TierShard) != svc.tier.Shards() {
		t.Fatalf("snapshot shard count %d", len(m.TierShard))
	}
}

// TestTTLExpiryRecomputes: with a TTL configured, a cached job recomputes
// once the fake clock crosses the epoch — and serves identical bytes,
// because results are pure functions of the job.
func TestTTLExpiryRecomputes(t *testing.T) {
	cfg := testConfig()
	cfg.TTL = time.Minute
	svc := mustService(t, cfg)
	now := time.Unix(0, 0)
	svc.now = func() time.Time { return now }

	r0, err := svc.RunJob(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second) // same epoch: a hit
	if _, err := svc.RunJob(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if s := svc.TierStats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("pre-expiry stats = %+v", s)
	}
	now = now.Add(2 * time.Minute) // next epoch: recompute in place
	r2, err := svc.RunJob(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if s := svc.TierStats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("post-expiry stats = %+v", s)
	}
	if r2.Text() != r0.Text() {
		t.Fatal("recomputed job served different bytes")
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
	cfg = testConfig()
	cfg.TTL = -time.Second
	if _, err := NewService(cfg); err == nil {
		t.Fatal("negative ttl must error")
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), -0.1, 1e300, device.MaxDrift * 2} {
		cfg = testConfig()
		cfg.Drift = d
		if _, err := NewService(cfg); err == nil {
			t.Fatalf("drift %v must error", d)
		}
	}
}
