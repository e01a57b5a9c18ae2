package mapper

import (
	"reflect"
	"testing"

	"edm/internal/device"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// driftWorkloads is the Fig. 13 drifting-campaign set; small enough to
// track across many cycles in a unit test.
func driftWorkloads(t *testing.T) []workloads.Workload {
	t.Helper()
	var ws []workloads.Workload
	for _, name := range []string{"qaoa-6", "bv-6", "greycode-6"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestTrackingCheckedIdentity is the exactness pin for the tentpole:
// across drifting calibration cycles, a RecompileChecked Tracking serves
// ensembles bit-identical (as values) to a full rebuild at the current
// calibration, for every k including the k = 1 branch-and-bound path,
// while actually reusing work (the counters prove candidates survived).
func TestTrackingCheckedIdentity(t *testing.T) {
	ws := driftWorkloads(t)
	root := rng.New(71)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), root.Derive("cal"))
	tr := NewTracking(cal, RecompileChecked)
	for cycle := 0; cycle < 4; cycle++ {
		if cycle > 0 {
			cal = cal.DriftLocal(2, 2, 0.4, 2e-3, root.DeriveN("cycle", cycle))
			d := tr.Advance(cal, 1e-3)
			if d.Full() {
				t.Fatalf("cycle %d: local drift reported as full-invalidation diff: %+v", cycle, d.Stats)
			}
		}
		fresh := tr.Compiler().Uncached()
		for _, w := range ws {
			for _, k := range []int{1, 2, 4} {
				got, err := tr.TopK(w.Circuit, k)
				if err != nil {
					t.Fatalf("cycle %d %s k=%d: %v", cycle, w.Name, k, err)
				}
				want, err := fresh.TopK(w.Circuit, k)
				if err != nil {
					t.Fatalf("cycle %d %s k=%d (fresh): %v", cycle, w.Name, k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cycle %d %s k=%d: tracked ensemble differs from full rebuild", cycle, w.Name, k)
				}
			}
			identical, delta, err := tr.CrossCheck(w.Circuit)
			if err != nil {
				t.Fatalf("cycle %d %s: cross-check: %v", cycle, w.Name, err)
			}
			if !identical {
				t.Fatalf("cycle %d %s: incremental pool not identical to full rebuild (max ESP delta %g)", cycle, w.Name, delta)
			}
		}
	}
	s := tr.Stats()
	if s.Pools == 0 {
		t.Fatal("no pool upgrades recorded across 3 advances")
	}
	if s.Reused+s.Rescored == 0 {
		t.Fatalf("no candidates survived any upgrade; incremental path never engaged: %+v", s)
	}
	if got := s.Reused + s.Rescored + s.Rerouted + s.Dropped; got != s.Processed() {
		t.Fatalf("Processed() = %d, parts sum to %d", s.Processed(), got)
	}
	if sv := s.Survival(); sv < 0 || sv > 1 {
		t.Fatalf("Survival() = %g out of range", sv)
	}
}

// TestTrackingTolZeroDegenerates pins the tol = 0 contract: any bit of
// drift makes the diff Full, so every upgrade is a full rebuild — exactly
// today's fingerprint-keyed full-invalidation behavior.
func TestTrackingTolZeroDegenerates(t *testing.T) {
	ws := driftWorkloads(t)
	root := rng.New(72)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), root.Derive("cal"))
	tr := NewTracking(cal, RecompileChecked)
	for _, w := range ws {
		if _, err := tr.TopK(w.Circuit, 4); err != nil {
			t.Fatal(err)
		}
	}
	cal = cal.DriftLocal(2, 2, 0.4, 2e-3, root.Derive("drift"))
	d := tr.Advance(cal, 0)
	if !d.Full() {
		t.Fatalf("tol=0 diff of drifted calibration is not Full: %+v", d.Stats)
	}
	fresh := tr.Compiler().Uncached()
	for _, w := range ws {
		got, err := tr.TopK(w.Circuit, 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.TopK(w.Circuit, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tol=0 tracked ensemble differs from full rebuild", w.Name)
		}
	}
	s := tr.Stats()
	if s.Pools != uint64(len(ws)) || s.FullRebuilds != s.Pools {
		t.Fatalf("tol=0 must rebuild every pool: %+v", s)
	}
	if s.Reused+s.Rescored+s.Rerouted != 0 {
		t.Fatalf("tol=0 reused candidate structure: %+v", s)
	}
	if s.Dropped == 0 {
		t.Fatalf("full rebuilds dropped no candidates: %+v", s)
	}
}

// TestTrackingSkippedGenerations checks the history-window diff: a pool
// requested at generation 0 and next requested at generation 3 upgrades
// against the direct gen-0 → gen-3 diff and stays exact.
func TestTrackingSkippedGenerations(t *testing.T) {
	w, ok := workloads.ByName("qaoa-6")
	if !ok {
		t.Fatal("unknown workload")
	}
	root := rng.New(73)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), root.Derive("cal"))
	tr := NewTracking(cal, RecompileChecked)
	if _, err := tr.TopK(w.Circuit, 4); err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 3; cycle++ {
		cal = cal.DriftLocal(2, 2, 0.4, 2e-3, root.DeriveN("cycle", cycle))
		tr.Advance(cal, 1e-3)
	}
	identical, delta, err := tr.CrossCheck(w.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if !identical {
		t.Fatalf("pool upgraded across 3 skipped generations diverged (max ESP delta %g)", delta)
	}
	if s := tr.Stats(); s.Pools != 1 {
		t.Fatalf("want exactly one (coalesced) upgrade, got %+v", s)
	}
}

// TestTrackingHistoryAgeOut checks the retention bound: a pool whose last
// generation has aged out of the trackHist window gets a Global diff and
// rebuilds fully rather than diffing against a forgotten calibration.
func TestTrackingHistoryAgeOut(t *testing.T) {
	w, ok := workloads.ByName("bv-6")
	if !ok {
		t.Fatal("unknown workload")
	}
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(74))
	tr := NewTracking(cal, RecompileChecked)
	if _, err := tr.TopK(w.Circuit, 2); err != nil {
		t.Fatal(err)
	}
	// Advance past the window without touching the pool. The calibration
	// never changes, so each advance is cheap and the only reason to
	// rebuild is the lost history.
	for i := 0; i < trackHist; i++ {
		tr.Advance(cal, 1e-3)
	}
	if d := tr.diffFor(0); !d.Global {
		t.Fatalf("generation 0 still diffable after %d advances; want Global fallback", trackHist)
	}
	if _, err := tr.TopK(w.Circuit, 2); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Pools != 1 || s.FullRebuilds != 1 {
		t.Fatalf("aged-out pool must rebuild fully: %+v", s)
	}
}

// TestTrackingFastMode sanity-checks the approximate mode: pools stay
// usable and under sub-tolerance jitter (nothing beyond tol) the fast
// path keeps all structure and only re-scores. The pool is NOT asserted
// identical to a full rebuild — routing ties can flip between
// ESP-equivalent symmetric layouts under any jitter, which is exactly
// the check RecompileFast skips — but the cross-check's routed-ESP
// delta, the quantity the mode trades for speed, must stay negligible.
func TestTrackingFastMode(t *testing.T) {
	ws := driftWorkloads(t)
	root := rng.New(76)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), root.Derive("cal"))
	tr := NewTracking(cal, RecompileFast)
	for cycle := 0; cycle < 3; cycle++ {
		if cycle > 0 {
			// Jitter only, well under tolerance: no qubit or edge moves
			// beyond tol, so fast mode keeps all structure and re-scores.
			cal = cal.DriftLocal(0, 0, 0, 1e-5, root.DeriveN("cycle", cycle))
			d := tr.Advance(cal, 1e-2)
			if d.Stats.ChangedQubits+d.Stats.ChangedEdges != 0 {
				t.Fatalf("cycle %d: sub-tolerance jitter crossed tolerance: %+v", cycle, d.Stats)
			}
		}
		for _, w := range ws {
			exes, err := tr.TopK(w.Circuit, 4)
			if err != nil {
				t.Fatalf("cycle %d %s: %v", cycle, w.Name, err)
			}
			for i, e := range exes {
				if e.ESP <= 0 || e.ESP > 1 {
					t.Fatalf("cycle %d %s member %d: ESP %g out of range", cycle, w.Name, i, e.ESP)
				}
			}
			_, delta, err := tr.CrossCheck(w.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			if delta > 1e-9 {
				t.Fatalf("cycle %d %s: fast mode routed-ESP delta %g under sub-tolerance jitter", cycle, w.Name, delta)
			}
		}
	}
	s := tr.Stats()
	if s.Rerouted != 0 || s.FullRebuilds != 0 {
		t.Fatalf("sub-tolerance fast upgrades re-routed or rebuilt: %+v", s)
	}
	if s.Rescored == 0 {
		t.Fatalf("jitter touched nothing? %+v", s)
	}
}

// TestTrackingExecutableTransfer checks that executables materialized in
// one generation are transferred (not rebuilt) across an upgrade whose
// checks pass, with the new generation's ESP patched in.
func TestTrackingExecutableTransfer(t *testing.T) {
	w, ok := workloads.ByName("bv-6")
	if !ok {
		t.Fatal("unknown workload")
	}
	root := rng.New(77)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), root.Derive("cal"))
	tr := NewTracking(cal, RecompileChecked)
	before, err := tr.TopK(w.Circuit, 4)
	if err != nil {
		t.Fatal(err)
	}
	cal = cal.DriftLocal(1, 1, 0.3, 1e-4, root.Derive("drift"))
	tr.Advance(cal, 1e-3)
	after, err := tr.TopK(w.Circuit, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.Stats(); s.FullRebuilds != 0 {
		t.Fatalf("upgrade fell back to a full rebuild; transfer not exercised: %+v", s)
	}
	shared := 0
	for _, a := range after {
		for _, b := range before {
			if a.Circuit == b.Circuit && sameInts(a.InitialLayout, b.InitialLayout) {
				shared++
				break
			}
		}
	}
	if shared == 0 {
		t.Fatal("no materialized circuit survived a local-drift upgrade")
	}
}
