package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"runtime"
	"time"

	"edm/internal/backend"
	"edm/internal/core"
	"edm/internal/dist"
	"edm/internal/experiment"
	"edm/internal/mapper"
	"edm/internal/memo"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// The campaign's cell runner replays experiment.RunPolicies cell by cell through
// the layers' public entry points — Setup.Round, Compiler.TopK,
// Machine.Run and Runner.RunExecutables — so the benchmark can stop
// between cells (idle points for the host reference) and time every call
// into a layer. campaign_test.go pins it to experiment.Fig9 and Fig11.

// figure selects the policies of one paper figure, as RunPolicies'
// policySet does.
type figure struct {
	name     string
	sizes    bool // EDM-2 and EDM-6 (Fig 9)
	postExec bool // post-execution best single mapping (Fig 11)
	wedm     bool // divergence-weighted merge (Fig 11)
}

var (
	fig9  = figure{name: "fig9", sizes: true}
	fig11 = figure{name: "fig11", postExec: true, wedm: true}
)

// cellResult mirrors one (workload, round) cell of RunPolicies.
type cellResult struct {
	base, post, edm, wedm, edm2, edm6, basePST, edmPST float64
}

// campaignJob is one policy run inside a cell: the TopK call that ranks
// its mappings plus the machine or ensemble run.
type campaignJob struct {
	start, end time.Time
	trials     int
}

// cellRunner runs figures cell by cell.
type cellRunner struct {
	s experiment.Setup
	// streams returns the root randomness of round i's cells; nil uses
	// Round.RNG, exactly as RunPolicies does.
	streams func(i int) *rng.RNG
	tr      *tracer
	// unit wraps each cell; nil runs cells bare.
	unit func(cell func()) error

	jobs    []campaignJob
	digests []uint64 // one per cell: hash of every histogram it produced
	cells   int      // cells run so far, the trace job id
	failed  int      // cells whose calls returned an error
	errs    []error
}

// call times one call into a layer as a child span of parent.
func (d *cellRunner) call(name string, parent int, f func()) {
	sp := d.tr.begin(name, parent, d.cells)
	f()
	d.tr.end(sp)
}

// run executes fig over all workloads and rounds and returns its rows.
func (d *cellRunner) run(fig figure) ([]experiment.PolicyRow, error) {
	s := d.s
	all := workloads.All()
	cells := make([]cellResult, len(all)*s.Rounds)
	for ci := range cells {
		w := all[ci/s.Rounds]
		var cellErr error
		body := func() { cells[ci], cellErr = d.cell(fig, w, ci%s.Rounds) }
		if d.unit == nil {
			body()
		} else if err := d.unit(body); err != nil {
			return nil, err
		}
		if cellErr != nil {
			d.failed++
			d.digests = append(d.digests, 0)
			d.errs = append(d.errs, fmt.Errorf("%s %s round %d: %w", fig.name, w.Name, ci%s.Rounds, cellErr))
		}
	}
	rows := make([]experiment.PolicyRow, len(all))
	for wi, w := range all {
		per := cells[wi*s.Rounds : (wi+1)*s.Rounds]
		pick := func(get func(cellResult) float64) float64 {
			xs := make([]float64, len(per))
			for i, c := range per {
				xs[i] = get(c)
			}
			return experiment.Median(xs)
		}
		row := experiment.PolicyRow{
			Workload:    w.Name,
			BaselineIST: pick(func(c cellResult) float64 { return c.base }),
			EDMIST:      pick(func(c cellResult) float64 { return c.edm }),
			BaselinePST: pick(func(c cellResult) float64 { return c.basePST }),
			EDMPST:      pick(func(c cellResult) float64 { return c.edmPST }),
		}
		if fig.postExec {
			row.PostExecIST = pick(func(c cellResult) float64 { return c.post })
		}
		if fig.wedm {
			row.WEDMIST = pick(func(c cellResult) float64 { return c.wedm })
		}
		if fig.sizes {
			row.EDM2IST = pick(func(c cellResult) float64 { return c.edm2 })
			row.EDM6IST = pick(func(c cellResult) float64 { return c.edm6 })
		}
		rows[wi] = row
	}
	return rows, nil
}

// cell runs every policy of fig for one workload and round, in
// RunPolicies' order and with its RNG streams.
func (d *cellRunner) cell(fig figure, w workloads.Workload, round int) (out cellResult, err error) {
	s := d.s
	top := d.tr.begin("campaign.cell", -1, d.cells)
	defer func() {
		d.tr.end(top)
		d.cells++
	}()
	h := fnv.New64a()

	var r *experiment.Round
	d.call("experiment.Round", top, func() { r = s.Round(round) })
	root := r.RNG
	if d.streams != nil {
		root = d.streams(round)
	}
	seed := root.Derive("policies-" + w.Name)

	// topk ranks mappings; runOne and runEnsemble each make one job.
	topk := func(k int) (execs []*mapper.Executable, err error) {
		d.call("mapper.TopK", top, func() { execs, err = r.Compiler.TopK(w.Circuit, k) })
		return execs, err
	}
	runOne := func(exe *mapper.Executable, rr *rng.RNG, start time.Time) (*dist.Dist, error) {
		var counts *dist.Counts
		var err error
		d.call("backend.Run", top, func() { counts, err = r.Machine.Run(exe.Circuit, s.Trials, rr) })
		if err != nil {
			return nil, err
		}
		hashCounts(h, counts)
		d.jobs = append(d.jobs, campaignJob{start, time.Now(), s.Trials})
		return counts.Dist(), nil
	}
	runEnsemble := func(k int, rr *rng.RNG) (*core.Result, error) {
		start := time.Now()
		execs, err := topk(k)
		if err != nil {
			return nil, err
		}
		var res *core.Result
		cfg := core.Config{K: k, Trials: s.Trials, Weighting: core.WeightUniform}
		d.call("core.RunExecutables", top, func() { res, err = r.Runner.RunExecutables(execs, cfg, rr) })
		if err != nil {
			return nil, err
		}
		for i := range res.Members {
			hashCounts(h, res.Members[i].Counts)
		}
		d.jobs = append(d.jobs, campaignJob{start, time.Now(), s.Trials})
		return res, nil
	}

	start := time.Now()
	best, err := topk(1)
	if err != nil {
		return out, err
	}
	bd, err := runOne(best[0], seed.Derive("base"), start)
	if err != nil {
		return out, err
	}
	out.base, out.basePST = bd.IST(w.Correct), bd.PST(w.Correct)

	res, err := runEnsemble(s.K, seed.Derive("edm"))
	if err != nil {
		return out, err
	}
	out.edm, out.edmPST = res.Merged.IST(w.Correct), res.Merged.PST(w.Correct)

	if fig.wedm {
		ds := res.MemberOutputs()
		out.wedm = dist.WeightedMerge(ds, core.MergeWeights(ds, core.WeightDivergence)).IST(w.Correct)
	}
	if fig.postExec {
		// Runner.BestPostExec: the member with the highest observed PST,
		// first on ties, re-run with the full budget.
		bi, bp := -1, -1.0
		for i := range res.Members {
			if p := res.Members[i].Output.PST(w.Correct); p > bp {
				bi, bp = i, p
			}
		}
		pd, err := runOne(res.Members[bi].Exec, seed.Derive("post"), time.Now())
		if err != nil {
			return out, err
		}
		out.post = pd.IST(w.Correct)
	}
	if fig.sizes {
		for _, k := range []int{2, 6} {
			rk, err := runEnsemble(k, seed.DeriveN("edm-k", k))
			if err != nil {
				return out, err
			}
			if k == 2 {
				out.edm2 = rk.Merged.IST(w.Correct)
			} else {
				out.edm6 = rk.Merged.IST(w.Correct)
			}
		}
	}
	d.digests = append(d.digests, h.Sum64())
	return out, nil
}

// istGain is the Fig 11 bar: the geometric mean over workloads of median
// EDM IST ÷ median baseline IST.
func istGain(rows []experiment.PolicyRow) float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.EDMOverBaseline()
	}
	return geomean(xs)
}

// campaignSetup is the campaign's scale: experiment.Quick() — melbourne,
// drift 0.2, 3 rounds, 2048 trials per policy, 4-member ensembles — on
// the paper campaign's calibration seed.
func campaignSetup() experiment.Setup {
	s := experiment.Quick()
	s.Seed = calSeed
	return s
}

// setupCampaign is the campaign's cold set-up: every round's calibration,
// machine and compiler, and the ranked mappings of every cell.
func setupCampaign(uint64) error {
	s := campaignSetup()
	for i := 0; i < s.Rounds; i++ {
		r := s.Round(i)
		for _, w := range workloads.All() {
			for _, k := range []int{1, 2, s.K, 6} {
				if _, err := r.Compiler.TopK(w.Circuit, k); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// passStreams returns the trial streams of a campaign pass: nil for the
// first, which keeps Round.RNG, and streams derived from the workload
// seed for the others.
func passStreams(seed uint64, pass int) func(round int) *rng.RNG {
	if pass == 0 {
		return nil
	}
	root := rng.New(seed).DeriveN("campaign-pass", pass)
	return func(i int) *rng.RNG { return root.DeriveN("round", i) }
}

// campaignPhase is one width's pass over Fig 9 then Fig 11.
type campaignPhase struct {
	phase
	rows9, rows11 []experiment.PolicyRow
	digests       []uint64
	failed        int
	prog          backend.CacheStats // program cache, summed over passes
	runs          memo.Stats         // run cache, summed over passes
}

// runCampaignPhase runs passes of Fig 9 then Fig 11 at the given width,
// each from cold process caches, on the paper campaign's device. The
// first pass is experiment.Fig9 and Fig11 at Quick() scale exactly, so
// its Fig 11 bar is exact; later passes draw their trial streams from the
// workload seed.
func runCampaignPhase(e *env, width, passes, jobBase int) (*campaignPhase, error) {
	prev := runtime.GOMAXPROCS(width)
	defer runtime.GOMAXPROCS(prev)
	m, err := newMeter(e.ref)
	if err != nil {
		return nil, err
	}
	ph := &campaignPhase{}
	var jobs []campaignJob
	job := jobBase
	for p := 0; p < passes; p++ {
		experiment.ResetCampaignCaches()
		d := &cellRunner{s: campaignSetup(), streams: passStreams(e.seed, p), tr: e.tr, cells: job}
		d.unit = func(cell func()) error {
			_, _, err := m.unit(cell)
			return err
		}
		rows9, err := d.run(fig9)
		if err != nil {
			return nil, err
		}
		rows11, err := d.run(fig11)
		if err != nil {
			return nil, err
		}
		ph.rows9 = append(ph.rows9, rows9...)
		ph.rows11 = append(ph.rows11, rows11...)
		ph.digests = append(ph.digests, d.digests...)
		ph.failed += d.failed
		for _, err := range d.errs {
			fmt.Fprintln(os.Stderr, "campaign:", err)
		}
		job = d.cells
		jobs = append(jobs, d.jobs...)
		prog, run := experiment.BackendCacheStats()
		ph.prog.Hits += prog.Hits
		ph.prog.Misses += prog.Misses
		ph.runs.Hits += run.Hits
		ph.runs.Misses += run.Misses
		ph.runs.Entries = run.Entries
	}
	f, err := m.finish()
	if err != nil {
		return nil, err
	}
	for id := jobBase; id < job; id++ {
		e.tr.setScale(id, f)
	}
	for _, j := range jobs {
		ph.addJob(m, j.start, j.end)
		ph.trials += j.trials
	}
	ph.factor, ph.raw = f, m.total()
	return ph, nil
}

func runCampaign(e *env) (*report, error) {
	rep := newReport()
	eng0, topk0, round0 := backend.EngineStatsSnapshot(), mapper.TopKCacheStats(), experiment.RoundCacheStats()
	passes := max(1, e.seconds/10)
	p1, err := runCampaignPhase(e, 1, passes, 0)
	if err != nil {
		return nil, err
	}
	t0 := e.tr.now()
	pn, err := runCampaignPhase(e, e.nproc, passes, len(p1.digests))
	if err != nil {
		return nil, err
	}
	t1 := e.tr.now()
	eng1, topk1, round1 := backend.EngineStatsSnapshot(), mapper.TopKCacheStats(), experiment.RoundCacheStats()

	rep.attempted = len(p1.digests) + len(pn.digests)
	rep.failed = p1.failed + pn.failed
	for i := range pn.digests {
		if i >= len(p1.digests) || pn.digests[i] != p1.digests[i] {
			rep.fail("campaign cell %d: histograms differ between GOMAXPROCS=1 and %d", i, e.nproc)
		}
	}
	if !reflect.DeepEqual(p1.rows9, pn.rows9) || !reflect.DeepEqual(p1.rows11, pn.rows11) {
		rep.fail("campaign: Fig 9/11 rows differ between GOMAXPROCS=1 and %d", e.nproc)
	}
	n := len(workloads.All())
	gain := istGain(pn.rows11[:n])
	if g1 := istGain(p1.rows11[:n]); g1 != gain {
		rep.fail("campaign: ist_gain %v at GOMAXPROCS=1, %v at %d", g1, gain, e.nproc)
	}

	rep.timing(&p1.phase, &pn.phase)
	rep.norm["retained_heap_mb"] = heapMiB()
	rep.norm["ist_gain"] = gain

	if e.tr != nil {
		l := rep.layer
		lts := layerTimes(e.tr.spans, e.tr.scales)
		l["experiment.round_ms"] = ms(busy(lts, "experiment.Round"))
		l["experiment.round_cache_hit_frac"] = hitFrac(round1.Hits-round0.Hits, round1.Misses-round0.Misses)
		l["mapper.topk_ms"] = ms(busy(lts, "mapper.TopK"))
		l["mapper.topk_calls"] = float64(count(lts, "mapper.TopK"))
		l["mapper.topk_cache_hit_frac"] = hitFrac(topk1.Hits-topk0.Hits, topk1.Misses-topk0.Misses)
		l["core.ensemble_ms"] = ms(busy(lts, "core.RunExecutables"))
		l["backend.run_ms"] = ms(busy(lts, "backend.Run"))
		l["backend.trials"] = float64(p1.trials + pn.trials)
		l["backend.prog_cache_hit_frac"] = hitFrac(p1.prog.Hits+pn.prog.Hits, p1.prog.Misses+pn.prog.Misses)
		l["backend.run_cache_hit_frac"] = hitFrac(p1.runs.Hits+pn.runs.Hits, p1.runs.Misses+pn.runs.Misses)
		l["backend.run_cache_entries"] = float64(pn.runs.Entries)
		engineLayers(l, eng0, eng1, busy(lts, "backend.Run")+busy(lts, "core.RunExecutables"))
		l["trace.coverage"] = topLevelCoverage(e.tr.spans, t0, t1)
		fillLayers(l)
	}
	return rep, nil
}
