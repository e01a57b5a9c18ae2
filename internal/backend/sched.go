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
// — sorts each bucket's trials, and fragments big buckets into units no
// larger than the unit lane budget (maxLanesFor).
//
// Phase B (replay): units are dealt round-robin to per-worker deques.
// A worker pops from its own deque; an empty worker steals the front
// half of the first non-empty victim's deque in one batch. Units never
// spawn units (the lane invariant, batchreplay.go), so a worker that
// finds every deque empty is done: work in flight belongs to a worker
// that will finish it.
//
// Determinism: every trial draws from its own derived stream positioned
// exactly where the legacy loop would position it, and the final
// histogram is a merge of integer counts, which is commutative — so
// Counts are byte-identical to the legacy loop at any GOMAXPROCS and
// any steal interleaving.
//
// Workers gate through the process-wide compute-token pool within each
// phase and hold no token across the inter-phase barrier, so concurrent
// Runs cannot deadlock on tokens.

// divTrial records one divergent trial found in phase A.
type divTrial struct {
	t  int
	ck *checkpoint
}

// unitDeque is one worker's queue of replay units. A mutex (not a
// lock-free deque) is enough: pops and steals are per-unit, and a unit
// amortizes hundreds of gate applications.
type unitDeque struct {
	mu    sync.Mutex
	units []replayUnit
}

func (d *unitDeque) push(us ...replayUnit) {
	d.mu.Lock()
	d.units = append(d.units, us...)
	d.mu.Unlock()
}

func (d *unitDeque) pop() (replayUnit, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.units)
	if n == 0 {
		return replayUnit{}, false
	}
	u := d.units[n-1]
	d.units[n-1] = replayUnit{}
	d.units = d.units[:n-1]
	return u, true
}

// stealHalf appends the front ceil(n/2) units of the deque to buf and
// removes them. The front is the victim's oldest work — the opposite
// end from its own pops, so contention on hot units is minimal.
func (d *unitDeque) stealHalf(buf []replayUnit) []replayUnit {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.units)
	if n == 0 {
		return buf
	}
	k := (n + 1) / 2
	buf = append(buf, d.units[:k]...)
	rem := copy(d.units, d.units[k:])
	for i := rem; i < n; i++ {
		d.units[i] = replayUnit{}
	}
	d.units = d.units[:rem]
	return buf
}

// testHookReadout, when set by a test, observes every trial at the
// engine's two readout sites (phase A's dominant readout and
// processUnit): the trial index, its outcome, and the trial stream after
// its last draw, which the draw-order contract test compares against the
// legacy loop's stream. Production runs leave it nil.
var testHookReadout func(trial int, out bitstr.BitString, final *rng.RNG)

// runBatched runs `trials` trials of prog through the batched replay
// engine. Counts are byte-identical to the legacy loop.
func (m *Machine) runBatched(prog *program, plan *prefixPlan, trials int, r *rng.RNG, cancel *atomic.Bool) *dist.Counts {
	workers := runtime.GOMAXPROCS(0)
	if trials < parallelThreshold || workers < 2 {
		workers = 1
	}

	// Phase A: tape-tree walks, dominant trials completed inline.
	partial := make([]*dist.Counts, workers)
	divLists := make([][]divTrial, workers)
	var cursor atomic.Int64
	const chunk = 256
	var wg sync.WaitGroup
	phaseA := func(w int) {
		defer wg.Done()
		pool.Acquire()
		defer pool.Release()
		counts := dist.NewCounts(prog.numClbits)
		trueBits := make([]int, prog.numClbits)
		var tally engineTally
		var divs []divTrial
		for {
			if cancel != nil && cancel.Load() {
				break
			}
			start := int(cursor.Add(chunk)) - chunk
			if start >= trials {
				break
			}
			end := start + chunk
			if end > trials {
				end = trials
			}
			for t := start; t < end; t++ {
				rt := r.DeriveN("trial", t)
				node, divStep, _ := walkTape(plan, rt)
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
					tally.div++
				}
			}
		}
		tally.flush()
		partial[w] = counts
		divLists[w] = divs
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go phaseA(w)
	}
	wg.Wait()

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
	if len(buckets) > 0 {
		engineStats.batchBuckets.Add(int64(len(buckets)))
	}
	// Map order is random; deal units in a fixed order so the schedule
	// (though not the result — counts merge commutatively) is stable.
	sort.Slice(units, func(i, j int) bool { return units[i].ids[0] < units[j].ids[0] })

	merge := func() *dist.Counts {
		counts := dist.NewCounts(prog.numClbits)
		for _, p := range partial {
			counts.Merge(p)
		}
		return counts
	}
	if len(units) == 0 {
		return merge()
	}

	// Phase B: batched suffix replay with work stealing.
	dq := make([]unitDeque, workers)
	for i, u := range units {
		dq[i%workers].units = append(dq[i%workers].units, u)
	}
	phaseB := func(w int) {
		defer wg.Done()
		pool.Acquire()
		defer pool.Release()
		counts := partial[w] // merge replay outcomes into the walk histogram
		var tally batchTally
		var stolen []replayUnit
		for cancel == nil || !cancel.Load() {
			u, ok := dq[w].pop()
			if !ok {
				stolen = stolen[:0]
				for v := 0; v < workers && len(stolen) == 0; v++ {
					if v != w {
						stolen = dq[v].stealHalf(stolen)
					}
				}
				if len(stolen) == 0 {
					break
				}
				tally.steals += int64(len(stolen))
				dq[w].push(stolen...)
				continue
			}
			m.processUnit(prog, plan, u, r, counts, &tally, cancel)
		}
		tally.flush()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go phaseB(w)
	}
	wg.Wait()
	return merge()
}
