// Package experiment reproduces every table and figure of the paper's
// evaluation on the simulated device. Each experiment is a pure function
// of a Setup, so the CLI (cmd/edm), the benchmark harness (bench_test.go)
// and the tests all share one implementation.
//
// The protocol follows paper Section 4.2: each experiment round draws a
// fresh calibration (the machine between two calibration cycles), the
// compiler sees that calibration while the machine runs a drifted copy,
// the baseline and the proposed policies execute back-to-back within the
// round with the full trial budget each, and the median round is reported.
package experiment

import (
	"sort"

	"edm/internal/backend"
	"edm/internal/core"
	"edm/internal/device"
	"edm/internal/mapper"
	"edm/internal/memo"
	"edm/internal/rng"
)

// Setup fixes the scale and randomness of an experimental campaign.
type Setup struct {
	// Seed makes the entire campaign reproducible.
	Seed uint64
	// Rounds is the number of calibration rounds; the paper uses 10.
	Rounds int
	// Trials is the per-policy trial budget per round; the paper uses
	// 16384 (split across members for ensembles).
	Trials int
	// K is the default ensemble size (paper default 4).
	K int
	// Drift scales how far the runtime calibration wanders from the
	// compile-time data within a round.
	Drift float64
	// Topo and Profile define the simulated machine.
	Topo    *device.Topology
	Profile device.Profile
	// NoCache disables the campaign memoization layer (Round cache,
	// ensemble cache, trial-run cache): every Round call materializes a
	// fresh machine and a plain NewCompiler, replicating the cost
	// structure the caches were benchmarked against. Results are
	// bit-identical either way; benchmarks use it as the frozen baseline.
	NoCache bool
}

// Default returns the paper-scale setup: IBMQ-14, 16384 trials, 10
// rounds, 4-member ensembles.
func Default() Setup {
	return Setup{
		Seed:    2019,
		Rounds:  10,
		Trials:  16384,
		K:       4,
		Drift:   0.2,
		Topo:    device.Melbourne(),
		Profile: device.MelbourneProfile(),
	}
}

// Quick returns a reduced-scale setup for smoke tests and CI: same
// machine, fewer rounds and trials.
func Quick() Setup {
	s := Default()
	s.Rounds = 3
	s.Trials = 2048
	return s
}

// Round holds the per-round execution context: the compiler that saw the
// calibration-cycle data and the machine running the drifted truth.
type Round struct {
	Index    int
	Compiler *mapper.Compiler
	Machine  *backend.Machine
	Runner   *core.Runner
	// RNG is the round's root randomness; derive sub-streams per policy.
	RNG *rng.RNG
}

// Round materializes round i of the campaign. Rounds are pure functions
// of (Setup, i), so every cell of a sweep that visits round i shares one
// memoized instance — calibration generation, drift, compiler and
// machine are built once per (Setup fingerprint, i), with concurrent
// misses waiting on a single build (see roundcache.go). A cached Round
// is safe to share: the compiler and machine are immutable-by-contract,
// and every consumer derives from Round.RNG (derivation never advances
// the parent stream), so the cached copy is indistinguishable from a
// fresh one. With s.NoCache set, each call builds a fresh uncached
// round instead.
func (s Setup) Round(i int) *Round {
	if s.NoCache {
		return s.buildRound(i, false)
	}
	key := memo.Mix(s.fingerprint(), uint64(i))
	return roundCache.Get(key, func() *Round { return s.buildRound(i, true) })
}

// buildRound materializes round i from scratch. With cached set, the
// round owns a memo compiler, which keeps its ensemble cache and counts
// into mapper.TopKCounters, and its machine memoizes whole trial runs;
// otherwise the compiler is a plain NewCompiler and the machine has no
// trial-run cache, so repeated calls redo all TopK and simulation work.
func (s Setup) buildRound(i int, cached bool) *Round {
	root := rng.New(s.Seed)
	cal := device.Generate(s.Topo, s.Profile, root.DeriveN("calibration", i))
	runtimeCal := cal.Drift(s.Drift, root.DeriveN("drift", i))
	var comp *mapper.Compiler
	mach := backend.New(runtimeCal)
	if cached {
		comp = mapper.NewMemoCompiler(cal, &mapper.TopKCounters)
		mach.EnableRunCache()
	} else {
		comp = mapper.NewCompiler(cal)
	}
	return &Round{
		Index:    i,
		Compiler: comp,
		Machine:  mach,
		Runner:   core.NewRunner(comp, mach),
		RNG:      root.DeriveN("round", i),
	}
}

// Median returns the median of xs (NaN-free input assumed). It panics on
// an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("experiment: median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
