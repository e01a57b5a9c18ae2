package backend

import (
	"sync"
	"sync/atomic"

	"edm/internal/dist"
	"edm/internal/noise"
	"edm/internal/rng"
	"edm/internal/statevec"
)

// Batched divergent-suffix replay. Divergences cluster — most divergent
// trials fall off the dominant path at the same high-probability noise
// sites — so replaying each divergent trial's suffix alone would
// re-apply the same deterministic gate runs to the same intermediate
// states over and over.
//
// The batched engine replays a whole bucket of trials breadth-first
// instead. A replayUnit is a set of trials that diverged under the same
// checkpoint. Its trials start as one group sharing one lane of a
// statevec.Batch (the restored checkpoint state). Deterministic steps
// apply once across every live lane through the flat batch kernels;
// stochastic steps draw each trial's branch from its own derived
// stream, then partition each group by branch: the most populated
// branch keeps the group's lane, minority branches get lanes cloned
// from the still-unmutated lane, and each sub-group continues as an
// independent group. Every amplitude still sees the exact FP op
// sequence of a lane-by-lane replay and every trial draws exactly the
// uniforms the legacy loop draws, so Counts stay byte-identical to it
// (pinned by the identity tests).
//
// Lane invariant: the scheduler cuts buckets into units of at most
// maxLanesFor trials, a unit's batch has one lane per trial, and every
// live lane carries at least one trial. Groups only split, so the live
// lanes never outnumber the unit's trials, and a split always finds a
// free lane.

// maxBatchBytes bounds one unit's batch storage (B·16·2^n bytes for B
// lanes of n qubits, DESIGN.md §15).
const maxBatchBytes = 32 << 20

// maxLanesFor returns the largest replay unit on n local qubits: as
// many lanes as fit in maxBatchBytes, clamped to [4, 128].
func maxLanesFor(n int) int {
	lanes := maxBatchBytes / (16 << uint(n))
	if lanes > 128 {
		lanes = 128
	}
	if lanes < 4 {
		lanes = 4
	}
	return lanes
}

// replayUnit is one schedulable piece of divergent-suffix work: the
// checkpoint to restore and the sorted trial indices to replay from it.
// Units never carry positioned RNG streams — processUnit re-derives
// each trial's stream from the run stream and skips it to the
// checkpoint's draw index, so whichever worker runs a unit redraws the
// same branches.
type replayUnit struct {
	ck  *checkpoint
	ids []int
}

// laneTrial is one trial inside a unit: its trial index and its private
// stream, positioned mid-suffix. rng.RNG is a value type, so the
// partition engine moves trials between groups by copying.
type laneTrial struct {
	id int
	r  rng.RNG
}

// rGroup is a contiguous run work[start:end] of trials whose replayed
// histories are still identical: they share lane `lane` of the unit's
// batch and the classical bits recorded so far. p0 and p1 are the
// populations the current sub-step's pass summed on the lane.
type rGroup struct {
	start, end int
	lane       int
	bits       []int
	p0, p1     float64
}

// unitState is the working set of processUnit: the double-buffered
// trial order and groups, each lane's pending diagonal updates, and the
// population pass's operands. A replay worker takes one from
// unitScratch for the units it claims, so the slices grow to the
// largest unit once and are reused across runs.
type unitState struct {
	work     []laneTrial // current trial order, grouped contiguously
	swap     []laneTrial // next order, rebuilt by each partition
	branch   []int       // branch drawn per work index, scratch
	outcomes []int       // measured outcome per live lane, scratch for drops
	norms    []float64   // kept-half population per live lane, scratch for drops
	groups   []rGroup
	gnext    []rGroup
	pend     []pendList // pending diagonal updates per lane

	// Population pass operands, one entry per group.
	popLanes []int
	popLists [][]statevec.Diag
	pop0     []float64
	pop1     []float64
}

// unitScratch recycles replay workers' working sets across runs.
var unitScratch = sync.Pool{New: func() any { return new(unitState) }}

// reset empties the working set for a unit of n trials (and so at most
// n lanes), growing it when a larger unit arrives.
func (us *unitState) reset(n int) {
	if cap(us.work) < n {
		us.work = make([]laneTrial, 0, n)
		us.swap = make([]laneTrial, 0, n)
		us.branch = make([]int, n)
		us.outcomes = make([]int, n)
		us.norms = make([]float64, n)
		us.groups = make([]rGroup, 0, n)
		us.gnext = make([]rGroup, 0, n)
		us.pend = make([]pendList, n)
		us.popLanes = make([]int, n)
		us.popLists = make([][]statevec.Diag, n)
		us.pop0 = make([]float64, n)
		us.pop1 = make([]float64, n)
	}
	us.work, us.swap = us.work[:0], us.swap[:0]
	us.groups, us.gnext = us.groups[:0], us.gnext[:0]
	for i := range us.pend[:n] {
		us.pend[i].n = 0
	}
}

// flushAll applies every live lane's pending updates, before a step
// that acts on all lanes at once.
func (us *unitState) flushAll(b *statevec.Batch) {
	for l := 0; l < b.Live(); l++ {
		us.pend[l].flush(b.Lane(l))
	}
}

// stochOp adapts one stochastic sub-step to the partition engine. When
// pops is set, partitionStoch first runs one population pass of qubit q
// over every group's lane, applying its pending updates, and prep turns
// a group's populations into the draw's values (branch probabilities,
// P(1)) and returns the operands the draw compares against; otherwise
// the operands are a and b. draw consumes exactly the uniforms the
// legacy loop consumes and returns the branch id; apply mutates a lane
// (its pending list and the group's bits) the way the legacy loop would
// for that branch.
type stochOp struct {
	step  int
	pops  bool
	q     int
	a, b  float64
	prep  func(p0, p1 float64) (a, b float64)
	draw  func(r *rng.RNG) int
	apply func(lane *statevec.State, pend *pendList, g *rGroup, branch int)
}

// applyUnitaryStepBatch is applyUnitaryStep across every live lane of a
// batch for a step that is not diagonal (those go onto the lanes'
// pending lists, setDiag): the same matClass dispatch onto the batched
// flat kernels. A step that is not diagonal has every qubit in the
// register.
func applyUnitaryStepBatch(b *statevec.Batch, st *step, q0, q1 int) {
	switch st.kind {
	case stepU1:
		if st.class == matAnti {
			b.Apply1QAntiDiagBatch(st.m2[0][1], st.m2[1][0], q0)
			return
		}
		b.Apply1QBatch(st.m2, q0)
	case stepU2:
		if st.class == matPerm {
			b.Apply2QPermBatch(st.perm, q0, q1)
			return
		}
		b.Apply2QBatch(st.m4, q0, q1)
	}
}

// partitionStoch advances every group through one stochastic sub-step:
// draw each trial's branch from its own stream, split groups whose
// trials disagree, clone lanes for minority branches, and rebuild the
// work array so groups stay contiguous. Branch ids must fit [0, 16).
//
// A sub-step that reads populations sums every group's lane in one
// population pass before any draw (Batch.PopsLanes): draws come from
// per-trial streams, so the order across groups does not matter, and
// each lane keeps its own summation order.
//
// Ordering matters twice more. Clones are taken before any branch's
// operator is applied, so every sub-group's lane snapshots the pre-step
// state; a clone copies a lane with nothing pending. And the keeper
// branch (the most populated; ties to the smallest id) reuses the
// group's lane, so a group that does not split does no state copying at
// all. The lane invariant guarantees every clone a lane.
func partitionStoch(b *statevec.Batch, us *unitState, op stochOp, tally *trialTally) {
	if op.pops {
		n := len(us.groups)
		for gi := range us.groups {
			l := us.groups[gi].lane
			us.popLanes[gi] = l
			us.popLists[gi] = us.pend[l].list()
		}
		b.PopsLanes(us.popLanes[:n], us.popLists[:n], op.q, us.pop0[:n], us.pop1[:n])
		for gi := range us.groups {
			g := &us.groups[gi]
			g.p0, g.p1 = us.pop0[gi], us.pop1[gi]
			us.pend[g.lane].n = 0
		}
	}
	us.gnext = us.gnext[:0]
	out := us.swap[:0]
	for gi := range us.groups {
		g := &us.groups[gi]
		lane := b.Lane(g.lane)
		a, bb := op.a, op.b
		if op.prep != nil {
			a, bb = op.prep(g.p0, g.p1)
		}
		uniform := true
		first := -1
		for i := g.start; i < g.end; i++ {
			hookDraw(us.work[i].id, op.step, a, bb)
			k := op.draw(&us.work[i].r)
			us.branch[i] = k
			if first < 0 {
				first = k
			} else if k != first {
				uniform = false
			}
		}
		if uniform {
			// Whole group took one branch: keep the lane, no reorder.
			ns := len(out)
			out = append(out, us.work[g.start:g.end]...)
			us.gnext = append(us.gnext, *g)
			sub := &us.gnext[len(us.gnext)-1]
			sub.start, sub.end = ns, len(out)
			op.apply(lane, &us.pend[sub.lane], sub, first)
			continue
		}
		var cnt [16]int
		for i := g.start; i < g.end; i++ {
			cnt[us.branch[i]]++
		}
		keep, kc := 0, 0
		for k, c := range cnt {
			if c > kc {
				keep, kc = k, c
			}
		}
		// Two passes: assign lanes and gather sub-groups first, apply
		// after — clones must snapshot the lane before the keeper's
		// operator mutates it. Sub-groups go straight into gnext, which
		// holds one group per lane at most, so it never reallocates.
		us.pend[g.lane].flush(lane)
		base := len(us.gnext)
		var branches [16]int
		for k, c := range cnt {
			if c == 0 {
				continue
			}
			sub := *g
			if k != keep {
				sub.lane = b.CloneLane(g.lane)
				sub.bits = append([]int(nil), g.bits...)
				us.pend[sub.lane].n = 0
				tally.clones++
			}
			sub.start = len(out)
			for i := g.start; i < g.end; i++ {
				if us.branch[i] == k {
					out = append(out, us.work[i])
				}
			}
			sub.end = len(out)
			branches[len(us.gnext)-base] = k
			us.gnext = append(us.gnext, sub)
		}
		for i := base; i < len(us.gnext); i++ {
			sg := &us.gnext[i]
			op.apply(b.Lane(sg.lane), &us.pend[sg.lane], sg, branches[i-base])
		}
	}
	us.work, us.swap = out, us.work[:0]
	us.groups, us.gnext = us.gnext, us.groups
}

// processUnit replays one unit's trials from its checkpoint to readout
// on the plan's register (registerSchedule), observing each trial's
// outcome into counts. The batch has one lane per trial and room for
// every local qubit; its lanes start at the checkpoint's width, widen
// at every entry and narrow at every terminal measurement. Diagonal
// updates stay pending on their lane until its next population pass,
// and are flushed before any step that acts on the lanes otherwise. us
// is the worker's scratch. A cancelled run returns early; the caller
// discards partial counts.
func (m *Machine) processUnit(prog *program, plan *prefixPlan, u replayUnit, base *rng.RNG, counts *dist.Counts, tally *trialTally, cancel *atomic.Bool, us *unitState) {
	ck := u.ck
	lanes := len(u.ids)
	b := statevec.GetBatch(prog.nLocal, lanes)
	defer b.Release()

	us.reset(lanes)
	for _, t := range u.ids {
		rr := base.DeriveN("trial", t)
		rr.Skip(ck.tapeIdx)
		us.work = append(us.work, laneTrial{id: t, r: *rr})
	}
	src := ck.state
	if src == nil {
		src = emptyRegister
	}
	lane0 := b.PushLane(src)
	bits := make([]int, prog.numClbits)
	copy(bits, ck.bits)
	us.groups = append(us.groups, rGroup{start: 0, end: len(us.work), lane: lane0, bits: bits})

	for si := ck.stepIdx; si < len(prog.steps); si++ {
		if cancel != nil && cancel.Load() {
			return
		}
		st := &prog.steps[si]
		for _, e := range plan.reg[si].enter {
			if e >= 0 {
				us.flushAll(b)
				b.Enter(int(e))
			}
		}
		q0, q1, drop := plan.at(si)
		switch st.kind {
		case stepU1, stepU2:
			if us.pend[0].addStep(b.Lane(0), st, q0, q1) {
				d := &us.pend[0].d[us.pend[0].n-1]
				for l := 1; l < b.Live(); l++ {
					*us.pend[l].next(b.Lane(l)) = *d
				}
			} else {
				us.flushAll(b)
				applyUnitaryStepBatch(b, st, q0, q1)
			}
		case stepPauli1:
			partitionStoch(b, us, stochOp{
				step: si, a: st.p,
				draw: func(r *rng.RNG) int { return noise.SamplePauli1Q(st.p, r) },
				apply: func(lane *statevec.State, pend *pendList, _ *rGroup, k int) {
					if k != 0 {
						pend.flush(lane)
						lane.Apply1Q(noise.Pauli1Q[k], q0)
					}
				},
			}, tally)
		case stepPauli2:
			partitionStoch(b, us, stochOp{
				step: si, a: st.p,
				draw: func(r *rng.RNG) int {
					ka, kb := noise.SamplePauli2Q(st.p, r)
					return ka | kb<<2
				},
				apply: func(lane *statevec.State, pend *pendList, _ *rGroup, k int) {
					if k != 0 {
						pend.flush(lane)
					}
					if ka := k & 3; ka != 0 {
						lane.Apply1Q(noise.Pauli1Q[ka], q0)
					}
					if kb := k >> 2; kb != 0 {
						lane.Apply1Q(noise.Pauli1Q[kb], q1)
					}
				},
			}, tally)
		case stepDamp:
			// addDamp builds both Kraus sets with exactly two operators,
			// so each channel is one two-way stochastic sub-step with the
			// same draw sequence as State.ApplyKraus1Q.
			for c := range st.damp {
				ch := &st.damp[c]
				if ch.ks == nil {
					continue
				}
				var probs [2]float64
				partitionStoch(b, us, stochOp{
					step: si, pops: true, q: q0,
					prep: func(p0, p1 float64) (float64, float64) {
						probs = ch.probs(p0, p1)
						return probs[0], probs[1]
					},
					draw: func(r *rng.RNG) int { return r.Choose(probs[:]) },
					apply: func(lane *statevec.State, pend *pendList, _ *rGroup, k int) {
						ch.branch(lane, pend, q0, k, probs[k])
					},
				}, tally)
			}
		case stepMeasure:
			var p1 float64
			partitionStoch(b, us, stochOp{
				step: si, pops: true, q: q0,
				prep: func(_, pop1 float64) (float64, float64) {
					p1 = pop1
					return p1, 0
				},
				draw: func(r *rng.RNG) int {
					if r.Float64() < p1 {
						return 1
					}
					return 0
				},
				apply: func(lane *statevec.State, _ *pendList, g *rGroup, k int) {
					if !drop {
						lane.Collapse(q0, k, [2]float64{g.p0, g.p1}[k], false)
					}
					g.bits[st.cbit] = k
				},
			}, tally)
			if drop {
				// Every live lane belongs to exactly one group, whose bits
				// now hold the lane's outcome and whose pass gave its norm:
				// project and drop all lanes at once so they keep a common
				// stride.
				out, norms := us.outcomes[:b.Live()], us.norms[:b.Live()]
				for gi := range us.groups {
					g := &us.groups[gi]
					k := g.bits[st.cbit]
					out[g.lane] = k
					norms[g.lane] = [2]float64{g.p0, g.p1}[k]
				}
				b.ProjectDrop(q0, out, norms)
			}
		}
	}
	for gi := range us.groups {
		g := &us.groups[gi]
		for i := g.start; i < g.end; i++ {
			lt := &us.work[i]
			out := m.applyReadout(prog, g.bits, &lt.r)
			counts.Observe(out)
			if testHookReadout != nil {
				testHookReadout(lt.id, out, &lt.r)
			}
		}
	}
	tally.units++
	tally.trials += int64(len(us.work))
	tally.lanes += int64(b.Live())
}
