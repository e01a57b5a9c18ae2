package mapper

import (
	"context"
	"math"
	"reflect"
	"testing"

	"edm/internal/circuit"
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

// candEqual reports bit-identity of two pool candidates: same ESP bits,
// same initial layout, and the same routing decisions.
func candEqual(a, b *candidate) bool {
	if math.Float64bits(a.esp) != math.Float64bits(b.esp) || !sameInts(a.layout, b.layout) {
		return false
	}
	if (a.alt == nil) != (b.alt == nil) {
		return false
	}
	if a.alt != nil {
		return sameInts(a.alt.res.final, b.alt.res.final) && sameRecs(a.alt.res.rec, b.alt.res.rec)
	}
	return sameInts(a.mono, b.mono)
}

// poolsIdentical rebuilds the circuit's pool from scratch at the
// tracked calibration and reports whether the tracked (upgraded) pool
// holds the same candidates in the same order, with bit-identical ESPs,
// layouts and routing.
func poolsIdentical(t *testing.T, tr *Tracking, logical *circuit.Circuit) bool {
	t.Helper()
	pe, err := tr.poolFor(context.Background(), logical)
	if err != nil {
		t.Fatal(err)
	}
	fresh := tr.Compiler().buildPool(logical)
	if pe.err != nil || fresh.err != nil {
		t.Fatalf("pool errors: tracked %v, fresh %v", pe.err, fresh.err)
	}
	if len(pe.cpool) != len(fresh.cpool) {
		return false
	}
	for i := range pe.cpool {
		if !candEqual(pe.cpool[i], fresh.cpool[i]) {
			return false
		}
	}
	return true
}

// TestTrackingCheckedIdentity is the exactness pin of the drift-tracked
// pools: across drifting calibration cycles, a Tracking serves ensembles
// bit-identical (as values) to a full rebuild at the current
// calibration, for every k including k = 1, and its pools match a fresh
// build candidate by candidate, while actually upgrading (the counters
// prove candidates survived).
func TestTrackingCheckedIdentity(t *testing.T) {
	ws := driftWorkloads(t)
	root := rng.New(71)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), root.Derive("cal"))
	tr := NewTracking(cal)
	for cycle := 0; cycle < 4; cycle++ {
		if cycle > 0 {
			cal = cal.DriftLocal(2, 2, 0.4, 2e-3, root.DeriveN("cycle", cycle))
			tr.Advance(cal)
		}
		// The generation's compiler carries no ensemble memo, so its
		// TopK builds from scratch.
		fresh := tr.Compiler()
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
			if !poolsIdentical(t, tr, w.Circuit) {
				t.Fatalf("cycle %d %s: upgraded pool not identical to full rebuild", cycle, w.Name)
			}
		}
	}
	s := tr.Stats()
	if s.Pools == 0 {
		t.Fatal("no pool upgrades recorded across 3 advances")
	}
	if s.Rescored == 0 {
		t.Fatalf("no candidates survived any upgrade; the upgrade path never engaged: %+v", s)
	}
	if got := s.Rescored + s.Rerouted + s.Dropped; got != s.Processed() {
		t.Fatalf("Processed() = %d, parts sum to %d", s.Processed(), got)
	}
	if sv := s.Survival(); sv < 0 || sv > 1 {
		t.Fatalf("Survival() = %g out of range", sv)
	}
}

// TestTrackingSkippedGenerations: a pool requested at generation 0 and
// next requested at generation 3 upgrades once, straight to the current
// calibration, and stays exact.
func TestTrackingSkippedGenerations(t *testing.T) {
	w, ok := workloads.ByName("qaoa-6")
	if !ok {
		t.Fatal("unknown workload")
	}
	root := rng.New(73)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), root.Derive("cal"))
	tr := NewTracking(cal)
	if _, err := tr.TopK(w.Circuit, 4); err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 3; cycle++ {
		cal = cal.DriftLocal(2, 2, 0.4, 2e-3, root.DeriveN("cycle", cycle))
		tr.Advance(cal)
	}
	if !poolsIdentical(t, tr, w.Circuit) {
		t.Fatal("pool upgraded across 3 skipped generations diverged from a full rebuild")
	}
	if s := tr.Stats(); s.Pools != 1 {
		t.Fatalf("want exactly one (coalesced) upgrade, got %+v", s)
	}
}

// TestTrackingTopologyChangeRebuilds: the VF2 enumeration an upgrade
// keeps is only valid on the coupling graph it ran on. Closing a line
// into a ring through its worst link keeps every calibration value the
// one-CX program's placement and routing read, so both come back
// unchanged, but it adds placements; the upgrade must rebuild the pool.
func TestTrackingTopologyChangeRebuilds(t *testing.T) {
	cal := device.Generate(device.Linear(8), device.MelbourneProfile(), rng.New(74))
	worst := cal.Topo.Edges()[0]
	for _, e := range cal.Topo.Edges() {
		if cal.CXErr[e] > cal.CXErr[worst] {
			worst = e
		}
	}
	ring := cal.Clone()
	ring.Topo = device.Ring(8)
	closing := device.NewEdge(0, 7)
	ring.CXErr[closing] = cal.CXErr[worst]
	ring.CXCohZZ[closing] = cal.CXCohZZ[worst]
	ring.CrossZZ[closing] = cal.CrossZZ[worst]

	w := workloads.BV("1")
	tr := NewTracking(cal)
	if _, err := tr.TopK(w.Circuit, 2); err != nil {
		t.Fatal(err)
	}
	tr.Advance(ring)
	if !poolsIdentical(t, tr, w.Circuit) {
		t.Fatal("pool after a topology change differs from a full rebuild")
	}
	if s := tr.Stats(); s.Pools != 1 || s.FullRebuilds != 1 || s.CheckFailed != 0 {
		t.Fatalf("topology change must rebuild fully before any re-route check: %+v", s)
	}
}

// TestTrackingDuplicateLayoutsRebuild: only lineages whose mono layouts
// are pairwise distinct upgrade. The same drift step upgrades a plain
// lineage but rebuilds one given a duplicate layout (a copy of one of
// its raw candidates), counting one full rebuild and no failed check,
// and both end equal to buildPool at the new calibration.
func TestTrackingDuplicateLayoutsRebuild(t *testing.T) {
	w, ok := workloads.ByName("qaoa-6")
	if !ok {
		t.Fatal("unknown workload")
	}
	root := rng.New(71)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), root.Derive("cal"))
	next := cal.DriftLocal(2, 2, 0.4, 2e-3, root.Derive("cycle"))
	for _, dup := range []bool{false, true} {
		tr := NewTracking(cal)
		pe, err := tr.poolFor(context.Background(), w.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if dup {
			cd := *pe.raw[len(pe.raw)/2]
			pe.raw = append(pe.raw, &cd)
		}
		tr.Advance(next)
		if !poolsIdentical(t, tr, w.Circuit) {
			t.Fatalf("duplicate=%v: pool after the upgrade differs from a full rebuild", dup)
		}
		want := uint64(0)
		if dup {
			want = 1
		}
		if s := tr.Stats(); s.Pools != 1 || s.FullRebuilds != want || s.CheckFailed != 0 {
			t.Fatalf("duplicate=%v: want one upgrade with %d full rebuilds and no failed check, got %+v", dup, want, s)
		}
	}
}
