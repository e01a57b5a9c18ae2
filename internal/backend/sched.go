package backend

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"edm/internal/bitstr"
	"edm/internal/dist"
	"edm/internal/pool"
	"edm/internal/rng"
)

// Two-phase scheduler for the batched replay engine.
//
// Phase A (walk): workers claim chunks of the trial range from an
// atomic cursor and burn each trial's stream against the tape tree.
// Fully dominant trials finish right there — readout draws against the
// leaf's bits, observed into the worker's private histogram. Divergent
// trials are cheap to classify (no state work) and are recorded as
// (trial, checkpoint) pairs.
//
// Between phases the coordinator buckets divergent trials by their
// restart checkpoint — checkpoints are interned per plan, so pointer
// identity keys (tree path, tightest checkpoint, tape segment) at once
// — sorts each bucket's trials, fragments big buckets into units no
// larger than the unit lane budget (maxLanesFor), and orders the units
// by their first trial.
//
// Phase B (replay): workers claim units one at a time, in that order,
// from a second atomic cursor. Units never spawn units (the lane
// invariant, batchreplay.go), so a worker that finds the cursor past
// the last unit is done: work in flight belongs to a worker that will
// finish it.
//
// Determinism: every trial draws from its own derived stream positioned
// exactly where the legacy loop would position it, and the final
// histogram is a merge of integer counts, which is commutative — so
// Counts are byte-identical to the legacy loop at any GOMAXPROCS and
// any claim interleaving.
//
// Each phase is one fanOut, so workers hold a compute token only within
// a phase and none across the inter-phase barrier; concurrent Runs
// cannot deadlock on tokens. The coordinator takes the plan's locks —
// growth's write lock, then the read lock it holds through both phases
// (prefix.go) — holding no token.

// divTrial records one divergent trial found in phase A.
type divTrial struct {
	t  int
	ck *checkpoint
}

// testHookReadout, when set by a test, observes every trial at the
// engine's two readout sites (phase A's dominant readout and
// processUnit): the trial index, its outcome, and the trial stream after
// its last draw, which the draw-order contract test compares against the
// legacy loop's stream. Production runs leave it nil.
var testHookReadout func(trial int, out bitstr.BitString, final *rng.RNG)

// testHookDraw, when set by a test, observes the operands of every draw
// the legacy loop and processUnit compare a uniform against: the trial
// (-1 from the legacy loop, whose caller knows which trial it runs), the
// schedule step, and the operands — a Pauli step's rate, a damping
// channel's two branch probabilities, a measurement's P(1) (b is 0 for
// the one-operand draws). Production runs leave it nil.
var testHookDraw func(trial, step int, a, b float64)

func hookDraw(trial, step int, a, b float64) {
	if testHookDraw != nil {
		testHookDraw(trial, step, a, b)
	}
}

// trialTally accumulates one worker's engine counters so the trial loops
// touch no atomics; fanOut flushes it once per worker.
type trialTally struct {
	full, div, stab              int64 // leaf-resolved, divergent and tableau trials
	units, trials, lanes, clones int64 // batched replay (batchreplay.go)
}

func (t *trialTally) flush() {
	add := func(a *atomic.Int64, n int64) {
		if n != 0 {
			a.Add(n)
		}
	}
	add(&engineStats.fullDominant, t.full)
	add(&engineStats.divergent, t.div)
	add(&engineStats.stabTrials, t.stab)
	add(&engineStats.batchUnits, t.units)
	add(&engineStats.batchTrials, t.trials)
	add(&engineStats.batchLanes, t.lanes)
	add(&engineStats.batchClones, t.clones)
}

// trialWorkers returns how many workers a loop over the given number of
// trials fans out to: GOMAXPROCS from parallelThreshold trials up, one
// below it or on a single CPU, where the goroutine overhead is not worth
// paying.
func trialWorkers(trials int) int {
	if w := runtime.GOMAXPROCS(0); trials >= parallelThreshold && w > 1 {
		return w
	}
	return 1
}

// fanOut is the one worker fan-out of every trial loop. It runs body on
// the given number of workers (on the caller's goroutine when there is
// one), each holding one compute token from the process-wide pool for
// its lifetime so trial workers compose with member- and experiment-level
// fan-out, and each filling a private histogram and tally. Each loop
// splits its own work by the worker index w. fanOut flushes the tallies
// and returns the merged histogram: integer counts merge commutatively,
// so the result does not depend on which worker ran which trial.
func fanOut(workers, nbits int, body func(w int, counts *dist.Counts, tally *trialTally)) *dist.Counts {
	partial := make([]*dist.Counts, workers)
	work := func(w int) {
		pool.Acquire()
		defer pool.Release()
		var tally trialTally
		partial[w] = dist.NewCounts(nbits)
		body(w, partial[w], &tally)
		tally.flush()
	}
	if workers == 1 {
		work(0)
		return partial[0]
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	for _, p := range partial[1:] {
		partial[0].Merge(p)
	}
	return partial[0]
}

// runBatched runs `trials` trials of prog through the batched replay
// engine. Counts are byte-identical to the legacy loop. It first grows
// the plan where earlier Runs left it (prefix.go), then holds the plan's
// read lock through both phases, and records where this Run's trials
// left the tree.
func (m *Machine) runBatched(prog *program, plan *prefixPlan, trials int, r *rng.RNG, cancel *atomic.Bool) *dist.Counts {
	m.grow(prog, plan)
	plan.mu.RLock()
	defer plan.mu.RUnlock()
	workers := trialWorkers(trials)

	// Phase A: tape-tree walks, dominant trials completed inline.
	// Departures at sites are recorded while the tree can still grow.
	divLists := make([][]divTrial, workers)
	var departs [][]siteKey
	if len(plan.leaves) < maxTreeLeaves {
		departs = make([][]siteKey, workers)
	}
	var next atomic.Int64
	const chunk = 256
	counts := fanOut(workers, prog.numClbits, func(w int, counts *dist.Counts, tally *trialTally) {
		trueBits := make([]int, prog.numClbits)
		var divs []divTrial
		var deps []siteKey
		for cancel == nil || !cancel.Load() {
			start := int(next.Add(chunk)) - chunk
			if start >= trials {
				break
			}
			end := min(start+chunk, trials)
			for t := start; t < end; t++ {
				rt := r.DeriveN("trial", t)
				node, divStep, divPos := walkTape(plan, rt)
				if divStep < 0 {
					copy(trueBits, node.domBits)
					out := m.applyReadout(prog, trueBits, rt)
					counts.Observe(out)
					if testHookReadout != nil {
						testHookReadout(t, out, rt)
					}
					tally.full++
				} else {
					divs = append(divs, divTrial{t: t, ck: node.checkpointBefore(divStep)})
					if idx := divPos - node.start; departs != nil && node.tape[idx].site {
						deps = append(deps, siteKey{node, int32(idx)})
					}
					tally.div++
				}
			}
		}
		divLists[w] = divs
		if departs != nil {
			departs[w] = deps
		}
	})
	if departs != nil {
		plan.record(departs)
	}

	// Bucket by checkpoint and fragment into units of at most the lane
	// budget (the lane invariant, batchreplay.go).
	maxLanes := maxLanesFor(prog.nLocal)
	buckets := make(map[*checkpoint][]int)
	for _, divs := range divLists {
		for _, d := range divs {
			buckets[d.ck] = append(buckets[d.ck], d.t)
		}
	}
	var units []replayUnit
	for ck, ids := range buckets {
		sort.Ints(ids)
		for len(ids) > maxLanes {
			units = append(units, replayUnit{ck: ck, ids: ids[:maxLanes:maxLanes]})
			ids = ids[maxLanes:]
		}
		units = append(units, replayUnit{ck: ck, ids: ids})
	}
	if len(units) == 0 {
		return counts
	}
	engineStats.batchBuckets.Add(int64(len(buckets)))
	// Map order is random; claim units in a fixed order so the schedule
	// (though not the result — counts merge commutatively) is stable.
	sort.Slice(units, func(i, j int) bool { return units[i].ids[0] < units[j].ids[0] })

	// Phase B: batched suffix replay, units claimed from a shared cursor.
	var claimed atomic.Int64
	counts.Merge(fanOut(min(workers, len(units)), prog.numClbits, func(_ int, counts *dist.Counts, tally *trialTally) {
		us := unitScratch.Get().(*unitState)
		defer unitScratch.Put(us)
		for cancel == nil || !cancel.Load() {
			i := int(claimed.Add(1)) - 1
			if i >= len(units) {
				break
			}
			m.processUnit(prog, plan, units[i], r, counts, tally, cancel, us)
		}
	}))
	return counts
}
