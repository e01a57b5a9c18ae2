package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"edm/internal/backend"
	"edm/internal/core"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// The replay workload: a fixed 4-member ensemble of greycode-12 on
// melbourne, compiled once in set-up, then one Runner.RunExecutables call
// per job with a fresh seed. Most trials diverge from the tape tree, so
// batched suffix replay, the statevector kernels and the work-stealing
// scheduler do the work, and no cache can reuse anything: the machine has
// no run cache and every job seed is new.

const (
	replayCircuit = "greycode-12"
	replayK       = 4
	// calSeed anchors every workload's device calibration: the paper
	// campaign's seed, so the machine is the one the figures use.
	calSeed    = 2019
	driftScale = 0.2
)

const (
	// replayTrials is one job's trial budget, split across the members.
	replayTrials = 1024
	// replayGainTrials is each member's trial budget in set-up's fixed
	// run that measures ist_gain.
	replayGainTrials = 256
)

// roundCals returns round i's compile-time calibration and its drifted
// runtime truth on melbourne, as experiment.Setup.Round derives them.
func roundCals(i int) (cal, runtimeCal *device.Calibration) {
	root := rng.New(calSeed)
	cal = device.Generate(device.Melbourne(), device.MelbourneProfile(), root.DeriveN("calibration", i))
	return cal, cal.Drift(driftScale, root.DeriveN("drift", i))
}

// replayEnsemble is the workload's compiled state.
type replayEnsemble struct {
	w      workloads.Workload
	mach   *backend.Machine
	runner *core.Runner
	execs  []*mapper.Executable
	// gain is the merged members' IST over member 0's, from one fixed-seed
	// run of each: EDM against the compile-time best mapping at equal
	// per-member budget. Its inputs are fixed, so it is exact.
	gain float64
}

// setupReplay compiles the ensemble and runs each member once, which
// compiles its program and builds its tape-tree plan, then runs each
// member with fixed seeds to measure the ensemble's IST gain.
func setupReplay(tr *tracer) (*replayEnsemble, error) {
	w, ok := workloads.ByName(replayCircuit)
	if !ok {
		return nil, fmt.Errorf("unknown workload %s", replayCircuit)
	}
	cal, runtimeCal := roundCals(0)
	comp := mapper.NewCompiler(cal)
	e := &replayEnsemble{w: w, mach: backend.New(runtimeCal)}
	e.runner = core.NewRunner(comp, e.mach)
	var err error
	sp := tr.begin("mapper.TopK", -1, -1)
	e.execs, err = comp.TopK(w.Circuit, replayK)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for i, exe := range e.execs {
		sp := tr.begin("backend.plan_build", -1, -1)
		_, err := e.mach.Run(exe.Circuit, 1, rng.New(calSeed).DeriveN("warm", i))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	outs := make([]*dist.Dist, len(e.execs))
	for i, exe := range e.execs {
		counts, err := e.mach.Run(exe.Circuit, replayGainTrials, rng.New(calSeed).DeriveN("gain", i))
		if err != nil {
			return nil, err
		}
		outs[i] = counts.Dist()
	}
	e.gain = frac(dist.Merge(outs).IST(w.Correct), outs[0].IST(w.Correct))
	return e, nil
}

// replayPhase is one width's pass over the job seeds.
type replayPhase struct {
	phase
	digests []uint64
	failed  int
}

// run replays every job seed at the given width.
func (e *replayEnsemble) run(seeds []*rng.RNG, width int, ref *hostRef, tr *tracer, job0 int) (*replayPhase, error) {
	prev := runtime.GOMAXPROCS(width)
	defer runtime.GOMAXPROCS(prev)
	m, err := newMeter(ref)
	if err != nil {
		return nil, err
	}
	ph := &replayPhase{}
	cfg := core.Config{K: len(e.execs), Trials: replayTrials, Weighting: core.WeightUniform}
	var answered [][2]time.Time
	for j, sd := range seeds {
		var res *core.Result
		var runErr error
		start, end, err := m.unit(func() {
			sp := tr.begin("core.RunExecutables", -1, job0+j)
			res, runErr = e.runner.RunExecutables(e.execs, cfg, sd)
			tr.end(sp)
		})
		if err != nil {
			return nil, err
		}
		if runErr != nil {
			ph.failed++
			ph.digests = append(ph.digests, 0)
			continue
		}
		h := fnv.New64a()
		for i := range res.Members {
			hashCounts(h, res.Members[i].Counts)
		}
		ph.digests = append(ph.digests, h.Sum64())
		ph.trials += cfg.Trials
		answered = append(answered, [2]time.Time{start, end})
	}
	if ph.factor, err = m.finish(); err != nil {
		return nil, err
	}
	for j := range seeds {
		tr.setScale(job0+j, ph.factor)
	}
	for _, a := range answered {
		ph.addJob(m, a[0], a[1])
	}
	ph.raw = m.total()
	return ph, nil
}

// replaySeeds derives n job seeds from the workload seed.
func replaySeeds(seed uint64, n int) []*rng.RNG {
	root := rng.New(seed).Derive("replay")
	seeds := make([]*rng.RNG, n)
	for i := range seeds {
		seeds[i] = root.DeriveN("job", i)
	}
	return seeds
}

func setupReplayChild(uint64) error {
	_, err := setupReplay(nil)
	return err
}

func runReplay(e *env) (*report, error) {
	rep := newReport()
	heap0 := heapMiB()
	ens, err := setupReplay(e.tr)
	if err != nil {
		return nil, err
	}
	planHeap := heapMiB() - heap0
	// One job seed per measured second: about 0.9 s of work at the two
	// widths together on the reference host.
	seeds := replaySeeds(e.seed, max(4, e.seconds))
	eng0 := backend.EngineStatsSnapshot()
	p1, err := ens.run(seeds, 1, e.ref, e.tr, 0)
	if err != nil {
		return nil, err
	}
	t0 := e.tr.now()
	pn, err := ens.run(seeds, e.nproc, e.ref, e.tr, len(seeds))
	if err != nil {
		return nil, err
	}
	t1 := e.tr.now()
	eng1 := backend.EngineStatsSnapshot()

	rep.attempted = 2 * len(seeds)
	rep.failed = p1.failed + pn.failed
	for i := range seeds {
		if p1.digests[i] != pn.digests[i] {
			rep.fail("replay job %d: histograms differ between GOMAXPROCS=1 and %d", i, e.nproc)
		}
	}
	rep.timing(&p1.phase, &pn.phase)
	rep.norm["retained_heap_mb"] = heapMiB()
	rep.norm["ist_gain"] = ens.gain
	runtime.KeepAlive(ens)

	if e.tr != nil {
		l := rep.layer
		lts := layerTimes(e.tr.spans, e.tr.scales)
		l["mapper.topk_ms"] = ms(busy(lts, "mapper.TopK"))
		l["mapper.topk_calls"] = float64(count(lts, "mapper.TopK"))
		l["core.ensemble_ms"] = ms(busy(lts, "core.RunExecutables"))
		l["backend.plan_build_ms"] = ms(busy(lts, "backend.plan_build"))
		l["backend.plan_heap_mb"] = planHeap
		l["backend.trials"] = float64(p1.trials + pn.trials)
		engineLayers(l, eng0, eng1, busy(lts, "core.RunExecutables"))
		// The plans were built in set-up, before eng0.
		l["backend.plans_built"] = float64(len(ens.execs))
		l["trace.coverage"] = topLevelCoverage(e.tr.spans, t0, t1)
		fillLayers(l)
	}
	return rep, nil
}
