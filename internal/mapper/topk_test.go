package mapper

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"edm/internal/bitset"
	"edm/internal/device"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// TestScorerMatchesDeviceESP pins the incremental scorer's contract: the
// ESP computed from the per-gate tables for a relabeled placement must be
// bit-identical to materializing the circuit and running device.ESP on
// it, because candidate ranking and tie-breaking compare these floats
// exactly.
func TestScorerMatchesDeviceESP(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(11))
	comp := NewCompiler(cal)
	for _, name := range []string{"qaoa-6", "fredkin", "bv-6"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatal("unknown workload")
		}
		base, err := comp.Compile(w.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		rp := comp.newReplacer(base)
		cands := rp.enumerate(nil)
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates", name)
		}
		if len(cands) > 200 {
			cands = cands[:200]
		}
		for i, cd := range cands {
			exe := rp.materialize(cd)
			got := device.MustESP(exe.Circuit, cal)
			if got != cd.esp {
				t.Fatalf("%s: candidate %d scorer ESP %v != device.ESP %v", name, i, cd.esp, got)
			}
			if !reflect.DeepEqual(exe.InitialLayout, cd.layout) {
				t.Fatalf("%s: candidate %d layout mismatch", name, i)
			}
		}
	}
}

// TestTopKDeterministicAcrossWorkers checks the pipeline's determinism
// contract: TopK results are bit-identical between a serial run
// (GOMAXPROCS=1) and parallel runs, and across repeated parallel runs.
// Run under -race this also exercises the sharded enumeration and the
// shared branch-and-bound threshold for data races.
func TestTopKDeterministicAcrossWorkers(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(3))
	comp := NewCompiler(cal)
	for _, name := range []string{"qaoa-6", "adder", "bv-6"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatal("unknown workload")
		}
		for _, k := range []int{1, 4} {
			old := runtime.GOMAXPROCS(1)
			serial, err := comp.TopK(w.Circuit, k)
			runtime.GOMAXPROCS(4)
			par1, err1 := comp.TopK(w.Circuit, k)
			par2, err2 := comp.TopK(w.Circuit, k)
			runtime.GOMAXPROCS(old)
			if err != nil || err1 != nil || err2 != nil {
				t.Fatalf("%s k=%d: errors %v %v %v", name, k, err, err1, err2)
			}
			if !reflect.DeepEqual(serial, par1) {
				t.Fatalf("%s k=%d: parallel result differs from serial", name, k)
			}
			if !reflect.DeepEqual(par1, par2) {
				t.Fatalf("%s k=%d: parallel runs disagree with each other", name, k)
			}
		}
	}
}

// TestSingleBestMatchesFullPool checks that the branch-and-bound k=1 path
// returns exactly the candidate the unpruned pool ranks first: member 0
// of TopK(k=2) is selected from the full pool by the same (ESP, layout)
// order, so the two must coincide.
func TestSingleBestMatchesFullPool(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	comp := NewCompiler(cal)
	for _, name := range []string{"greycode-6", "qaoa-5", "decode24", "bv-6"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatal("unknown workload")
		}
		one, err := comp.TopK(w.Circuit, 1)
		if err != nil {
			t.Fatal(err)
		}
		two, err := comp.TopK(w.Circuit, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(one) != 1 {
			t.Fatalf("%s: k=1 returned %d members", name, len(one))
		}
		if !reflect.DeepEqual(one[0], two[0]) {
			t.Fatalf("%s: pruned k=1 best (ESP %v, layout %v) differs from full-pool best (ESP %v, layout %v)",
				name, one[0].ESP, one[0].InitialLayout, two[0].ESP, two[0].InitialLayout)
		}
	}
}

// TestPlacementsParallelDeterminism covers the Placements entry point the
// Fig8 analysis uses.
func TestPlacementsParallelDeterminism(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(13))
	comp := NewCompiler(cal)
	w, ok := workloads.ByName("qaoa-6")
	if !ok {
		t.Fatal("unknown workload")
	}
	old := runtime.GOMAXPROCS(1)
	serial, err := comp.Placements(w.Circuit, 16)
	runtime.GOMAXPROCS(4)
	par, perr := comp.Placements(w.Circuit, 16)
	runtime.GOMAXPROCS(old)
	if err != nil || perr != nil {
		t.Fatalf("errors: %v %v", err, perr)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel Placements differ from serial")
	}
}

// TestTooWideDeviceRejected: compiling for a device wider than the
// footprint masks must fail loudly with ErrDeviceTooWide, never truncate
// qubit indices into the mask.
func TestTooWideDeviceRejected(t *testing.T) {
	comp := NewCompiler(calFor(device.Linear(bitset.Cap+8), 11))
	w := workloads.All()[0]
	if _, err := comp.Compile(w.Circuit); !errors.Is(err, device.ErrDeviceTooWide) {
		t.Fatalf("Compile on %d-qubit device: err = %v, want ErrDeviceTooWide", bitset.Cap+8, err)
	}
	if _, err := comp.TopK(w.Circuit, 4); !errors.Is(err, device.ErrDeviceTooWide) {
		t.Fatalf("TopK on wide device: err = %v, want ErrDeviceTooWide", err)
	}
}

// TestMaskOps sanity-checks the bitmask set type against the obvious
// reference.
func TestMaskOps(t *testing.T) {
	var a, b qmask
	for _, q := range []int{0, 5, 63, 64, 77, 129} {
		a.Add(q)
	}
	for _, q := range []int{5, 63, 100, 129} {
		b.Add(q)
	}
	if a.Count() != 6 || b.Count() != 4 {
		t.Fatalf("counts: %d %d", a.Count(), b.Count())
	}
	if got := a.Overlap(b); got != 3 {
		t.Fatalf("overlap = %d, want 3", got)
	}
	if maskHash(a) == maskHash(b) {
		t.Fatal("distinct masks share a hash")
	}
}
