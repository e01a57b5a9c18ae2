package experiment

import (
	"fmt"
	"math"
	"time"

	"edm/internal/backend"
	"edm/internal/circuit"
	"edm/internal/core"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/memo"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// The drifting campaign models the deployment the paper's Section 5.3
// motivates but the round-based protocol sidesteps: one machine tracked
// through successive calibration windows, where each window moves a few
// qubits and links appreciably and jitters the rest. Instead of
// recompiling every workload from scratch each window, the campaign
// threads the sequence of calibrations through mapper.Tracking, which
// upgrades the cached candidate pools to each new window (DESIGN.md §11)
// with results bit-identical to a from-scratch compile.

// Per-window drift: hitQubits qubits and hitEdges links move by a
// relative scale of driftScale; every other element jitters by
// driftJitter (device.Calibration.DriftLocal).
const (
	hitQubits   = 2
	hitEdges    = 2
	driftScale  = 0.04
	driftJitter = 2e-4
)

// DriftSetup fixes the scale and randomness of a drifting campaign.
type DriftSetup struct {
	Seed   uint64
	Cycles int // calibration windows, including the cold cycle 0
	Trials int
	K      int

	// Drift scales the within-window runtime wander, as in Setup.
	Drift float64

	Topo    *device.Topology
	Profile device.Profile
	// Workloads names the circuits tracked across the campaign.
	Workloads []string
}

// DefaultDriftSetup returns the paper-scale drifting campaign on the
// Figure 13 workload set.
func DefaultDriftSetup() DriftSetup {
	return DriftSetup{
		Seed:      2019,
		Cycles:    10,
		Trials:    4096,
		K:         4,
		Drift:     0.2,
		Topo:      device.Melbourne(),
		Profile:   device.MelbourneProfile(),
		Workloads: []string{"qaoa-6", "bv-6", "greycode-6"},
	}
}

// QuickDriftSetup returns a reduced-scale drifting campaign for smoke
// tests and CI.
func QuickDriftSetup() DriftSetup {
	s := DefaultDriftSetup()
	s.Cycles = 5
	s.Trials = 1024
	return s
}

// DriftCell is one workload's outcome in one calibration window.
type DriftCell struct {
	Workload    string
	BaselinePST float64
	BaselineIST float64
	EDMPST      float64
	EDMIST      float64
	// CountsKey fingerprints the baseline and ensemble output
	// distributions bit-for-bit; identical keys between the tracked and
	// the from-scratch campaign prove both executed identical circuits.
	CountsKey uint64
}

// DriftRound is one calibration window of the campaign.
type DriftRound struct {
	Cycle int
	// Recompile is this window's pool-upgrade counter delta (zero value
	// when every window compiles from scratch).
	Recompile mapper.RecompileStats
	// CompileMs is the wall time of the window's compile phase (every
	// workload at k = K).
	CompileMs float64
	Cells     []DriftCell
}

// DriftResult is the outcome of a drifting campaign.
type DriftResult struct {
	Rounds []DriftRound
	// CompileMsTotal sums every window's compile phase; CompileMsSteady
	// excludes the cold cycle 0, isolating the per-window recompilation
	// cost the tracked pools cut.
	CompileMsTotal  float64
	CompileMsSteady float64
	// Stats is the campaign's aggregate recompilation counters.
	Stats mapper.RecompileStats
}

// distKey folds a distribution into a running fingerprint, outcome by
// outcome in deterministic order.
func distKey(h uint64, d *dist.Dist) uint64 {
	h = memo.Mix(h, uint64(d.N()))
	for _, o := range d.Sorted() {
		h = memo.Mix(h, o.Value.Uint64())
		h = memo.Mix(h, math.Float64bits(o.P))
	}
	return h
}

// RunDrifting executes a drifting campaign, compiling through
// drift-tracked pools.
func RunDrifting(s DriftSetup) DriftResult { return runDrifting(s, true) }

// runDrifting executes a drifting campaign. With tracked false every
// window compiles from scratch on its own compiler: the reference the
// tracked pools are checked and timed against. Every RNG stream is
// derived from the seed, the cycle index and the workload name only, so
// the run phase of two campaigns that compiled identical circuits
// produces bit-identical cells, which is what makes the tracked
// campaign checkable against the reference end to end.
func runDrifting(s DriftSetup, tracked bool) DriftResult {
	ws := make([]workloads.Workload, len(s.Workloads))
	for i, name := range s.Workloads {
		w, ok := workloads.ByName(name)
		if !ok {
			panic(fmt.Sprintf("experiment: unknown workload %q", name))
		}
		ws[i] = w
	}

	root := rng.New(s.Seed).Derive("drift-campaign")
	cal := device.Generate(s.Topo, s.Profile, root.Derive("calibration"))

	var tr *mapper.Tracking
	var comp *mapper.Compiler
	if tracked {
		tr = mapper.NewTracking(cal)
	} else {
		comp = mapper.NewCompiler(cal)
	}
	topK := func(c *circuit.Circuit, k int) ([]*mapper.Executable, error) {
		if tr != nil {
			return tr.TopK(c, k)
		}
		return comp.TopK(c, k)
	}

	out := DriftResult{Rounds: make([]DriftRound, 0, s.Cycles)}
	var prevStats mapper.RecompileStats
	for cycle := 0; cycle < s.Cycles; cycle++ {
		round := DriftRound{Cycle: cycle}
		if cycle > 0 {
			cal = cal.DriftLocal(hitQubits, hitEdges, driftScale, driftJitter, root.DeriveN("cycle", cycle))
			if tr != nil {
				tr.Advance(cal)
			} else {
				comp = mapper.NewCompiler(cal)
			}
		}
		mach := backend.New(cal.Drift(s.Drift, root.DeriveN("runtime", cycle)))

		// Compile phase, timed: this is the per-window cost the tracked
		// pools cut. The baseline mapping is ensemble member 0 —
		// selectDiverse always seats the pool head there (pinned by
		// TestTopKPrefixStability), so the tracked and the from-scratch
		// campaign obtain it from the same pool-ranked path and the
		// comparison measures pool construction, not the separate k = 1
		// branch-and-bound.
		// Workloads compile one after another: the pool pipeline is
		// internally parallel already, and racing three compiles against
		// each other only adds contention noise to the timing this
		// experiment exists to measure.
		comps := make([][]*mapper.Executable, len(ws))
		start := time.Now()
		for i := range ws {
			ens, err := topK(ws[i].Circuit, s.K)
			if err != nil {
				panic(err)
			}
			comps[i] = ens
		}
		round.CompileMs = float64(time.Since(start)) / float64(time.Millisecond)
		out.CompileMsTotal += round.CompileMs
		if cycle > 0 {
			out.CompileMsSteady += round.CompileMs
		}

		if tr != nil {
			cur := tr.Stats()
			round.Recompile = cur.Sub(prevStats)
			prevStats = cur
		}

		// Run phase: streams derive from (seed, cycle, workload) only.
		cc := comp
		if tr != nil {
			cc = tr.Compiler()
		}
		runner := core.NewRunner(cc, mach)
		round.Cells = make([]DriftCell, len(ws))
		runCells(len(ws), func(i int) {
			w := ws[i]
			cr := root.DeriveN("cycle-run", cycle).Derive(w.Name)
			bd, err := mach.RunDist(comps[i][0].Circuit, s.Trials, cr.Derive("baseline"))
			if err != nil {
				panic(err)
			}
			res, err := runner.RunExecutables(comps[i],
				core.Config{K: s.K, Trials: s.Trials, Weighting: core.WeightUniform},
				cr.Derive("edm"))
			if err != nil {
				panic(err)
			}
			key := distKey(memo.Seed(), bd)
			key = distKey(key, res.Merged)
			round.Cells[i] = DriftCell{
				Workload:    w.Name,
				BaselinePST: bd.PST(w.Correct),
				BaselineIST: bd.IST(w.Correct),
				EDMPST:      res.Merged.PST(w.Correct),
				EDMIST:      res.Merged.IST(w.Correct),
				CountsKey:   key,
			}
		})
		out.Rounds = append(out.Rounds, round)
	}
	if tr != nil {
		out.Stats = tr.Stats()
	}
	return out
}
