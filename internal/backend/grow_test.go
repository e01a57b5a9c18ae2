package backend

import (
	"runtime"
	"sync"
	"testing"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/rng"
)

// TestGrowthMatchesFreshAndLegacy: a seed gives byte-identical Counts on
// a fresh plan (the dominant path alone), on a plan grown by earlier
// Runs, and on the legacy loop, at GOMAXPROCS 1 and 4. The circuits are
// a GHZ chain, whose 50/50 measurement forks, and paper workloads.
func TestGrowthMatchesFreshAndLegacy(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	exes := physicalWorkloads(t)
	circuits := map[string]*circuit.Circuit{"ghz-chain": benchCircuit(8)}
	for _, name := range []string{"bv-6", "greycode-6", "adder"} {
		circuits[name] = exes[name].Circuit
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for name, exe := range circuits {
			legacy := New(cal)
			legacy.engine = engineLegacy
			grown := New(cal)
			growPlan(t, grown, exe, 600)
			if name == "ghz-chain" && grown.PlanStats().ForksGrown == 0 {
				t.Fatalf("%s: earlier Runs grew no fork", name)
			}
			for _, seed := range []uint64{3, 4} {
				want, err := legacy.Run(exe, 1000, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := New(cal).Run(exe, 1000, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				got, err := grown.Run(exe, 1000, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if !countsEqual(want, fresh) {
					t.Errorf("%s seed %d, GOMAXPROCS=%d: fresh plan's Counts differ from legacy", name, seed, procs)
				}
				if !countsEqual(want, got) {
					t.Errorf("%s seed %d, GOMAXPROCS=%d: grown plan's Counts differ from legacy", name, seed, procs)
				}
			}
		}
	}
}

// TestGrowthConcurrentRuns runs one program from many goroutines at
// once, in waves, so Runs walk and replay under the read lock while
// others record departures and grow the plan under the write lock
// (ci.sh runs it under -race). Every Run must match the legacy loop.
func TestGrowthConcurrentRuns(t *testing.T) {
	m := noisyMachine(7)
	legacy := noisyMachine(7)
	legacy.engine = engineLegacy
	exe := benchCircuit(10)
	const waves, perWave, trials = 3, 6, 300
	got := make([]*dist.Counts, waves*perWave)
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for i := w * perWave; i < (w+1)*perWave; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := m.Run(exe, trials, rng.New(uint64(i)))
				if err != nil {
					t.Error(err)
				}
				got[i] = c
			}()
		}
		wg.Wait()
	}
	for i, c := range got {
		want, err := legacy.Run(exe, trials, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if c == nil || !countsEqual(want, c) {
			t.Errorf("run %d: Counts differ from legacy", i)
		}
	}
	if m.PlanStats().ForksGrown == 0 {
		t.Fatal("concurrent Runs grew no fork")
	}
}

// TestGrowthStopsAtMachineBudget: the plan budget bounds all of a
// machine's plans together. With the budget just above the two dominant
// paths, the first program to grow takes one fork and the second none,
// though trials leave both in every Run; Counts stay exact.
func TestGrowthStopsAtMachineBudget(t *testing.T) {
	m := noisyMachine(7)
	legacy := noisyMachine(7)
	legacy.engine = engineLegacy
	a, b := benchCircuit(10), benchCircuit(8)
	var plans [2]*prefixPlan
	for i, exe := range []*circuit.Circuit{a, b} {
		prog, err := m.getProgram(exe)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = m.planFor(prog)
	}
	m.planBudget = m.PlanStats().Bytes() + 1
	growPlan(t, m, a, 600)
	growPlan(t, m, b, 600)
	if fa, fb := plans[0].forksGrown.Load(), plans[1].forksGrown.Load(); fa != 1 || fb != 0 {
		t.Fatalf("forks grown %d and %d, want 1 and 0 under the machine budget", fa, fb)
	}
	if s := m.PlanStats(); s.Bytes() < m.planBudget || s.Plans != 2 {
		t.Fatalf("plan stats %+v: want 2 plans holding at least the budget %d", s, m.planBudget)
	}
	for _, exe := range []*circuit.Circuit{a, b} {
		want, err := legacy.Run(exe, 600, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Run(exe, 600, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if !countsEqual(want, got) {
			t.Error("Counts under the budget differ from legacy")
		}
	}
}

// TestGrowthPlanStats: after a few Runs, Machine.PlanStats equals the
// sums over the plans' own nodes — checkpoint amplitude bytes at each
// checkpoint's width, tape and fork entries, leaves, and forks (every
// internal node was grown).
func TestGrowthPlanStats(t *testing.T) {
	m := noisyMachine(7)
	var want PlanStats
	for _, exe := range []*circuit.Circuit{benchCircuit(6), benchCircuit(10), benchCircuit(12)} {
		growPlan(t, m, exe, 400)
		prog, err := m.getProgram(exe)
		if err != nil {
			t.Fatal(err)
		}
		plan := m.planFor(prog)
		want.Plans++
		for _, n := range plan.nodes {
			want.TapeBytes += int64(len(n.tape)) * entrySize
			if n.isLeaf() {
				want.Leaves++
			} else {
				want.ForksGrown++
				want.TapeBytes += entrySize
			}
			for j := range n.ckpts {
				if ck := &n.ckpts[j]; ck.state != nil {
					want.CheckpointBytes += 16 << uint(ck.state.N())
				}
			}
		}
	}
	if got := m.PlanStats(); got != want {
		t.Fatalf("PlanStats = %+v, plans hold %+v", got, want)
	}
	if want.ForksGrown == 0 {
		t.Fatal("no plan grew; the test checks only dominant paths")
	}
}
