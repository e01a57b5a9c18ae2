package backend

import (
	"sync/atomic"

	"edm/internal/circuit"
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
// batch and the classical bits recorded so far.
type rGroup struct {
	start, end int
	lane       int
	bits       []int
}

// unitState is the double-buffered working set of one processUnit call.
type unitState struct {
	work     []laneTrial // current trial order, grouped contiguously
	swap     []laneTrial // next order, rebuilt by each partition
	branch   []int       // branch drawn per work index, scratch
	outcomes []int       // measured outcome per live lane, scratch for drops
	groups   []rGroup
	gnext    []rGroup
}

// stochOp adapts one stochastic sub-step to the partition engine. prep
// computes the state-dependent values once per group from its lane
// (branch probabilities, P(1)); draw consumes exactly the uniforms the
// legacy loop consumes and returns the branch id; apply mutates a
// lane (and the group's bits) the way the legacy loop would for
// that branch.
type stochOp struct {
	prep  func(lane *statevec.State)
	draw  func(r *rng.RNG) int
	apply func(lane *statevec.State, bits []int, branch int)
}

// applyUnitaryStepBatch is applyUnitaryStep across every live lane of a
// batch: the same matClass dispatch onto the batched flat kernels.
func applyUnitaryStepBatch(b *statevec.Batch, st *step, q0, q1 int) {
	switch st.kind {
	case stepU1:
		switch st.class {
		case matDiag:
			if q0 == outside {
				b.ScaleBatch(st.m2[0][0])
				return
			}
			b.Apply1QDiagBatch(st.m2[0][0], st.m2[1][1], q0)
		case matAnti:
			b.Apply1QAntiDiagBatch(st.m2[0][1], st.m2[1][0], q0)
		default:
			b.Apply1QBatch(st.m2, q0)
		}
	case stepU2:
		switch st.class {
		case matDiag:
			switch {
			case q0 == outside && q1 == outside:
				b.ScaleBatch(st.d4[0])
			case q1 == outside:
				b.Apply1QDiagBatch(st.d4[0], st.d4[1], q0)
			case q0 == outside:
				b.Apply1QDiagBatch(st.d4[0], st.d4[2], q1)
			default:
				b.Apply2QDiagBatch(st.d4, q0, q1)
			}
		case matPerm:
			b.Apply2QPermBatch(st.perm, q0, q1)
		default:
			b.Apply2QBatch(st.m4, q0, q1)
		}
	}
}

// partitionStoch advances every group through one stochastic sub-step:
// draw each trial's branch from its own stream, split groups whose
// trials disagree, clone lanes for minority branches, and rebuild the
// work array so groups stay contiguous. Branch ids must fit [0, 16).
//
// Ordering matters twice. Clones are taken before any branch's operator
// is applied, so every sub-group's lane snapshots the pre-step state.
// And the keeper branch (the most populated; ties to the smallest id)
// reuses the group's lane, so a group that does not split does no state
// copying at all. The lane invariant guarantees every clone a lane.
func partitionStoch(b *statevec.Batch, us *unitState, op stochOp, tally *trialTally) {
	us.gnext = us.gnext[:0]
	out := us.swap[:0]
	for gi := range us.groups {
		g := &us.groups[gi]
		lane := b.Lane(g.lane)
		if op.prep != nil {
			op.prep(lane)
		}
		uniform := true
		first := -1
		for i := g.start; i < g.end; i++ {
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
			op.apply(lane, g.bits, first)
			us.gnext = append(us.gnext, rGroup{start: ns, end: len(out), lane: g.lane, bits: g.bits})
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
		// operator mutates it.
		type subGroup struct {
			g      rGroup
			branch int
		}
		var subs [16]subGroup
		nsubs := 0
		for k, c := range cnt {
			if c == 0 {
				continue
			}
			laneIdx := g.lane
			bits := g.bits
			if k != keep {
				laneIdx = b.CloneLane(g.lane)
				bits = append([]int(nil), g.bits...)
				tally.clones++
			}
			ns := len(out)
			for i := g.start; i < g.end; i++ {
				if us.branch[i] == k {
					out = append(out, us.work[i])
				}
			}
			subs[nsubs] = subGroup{
				g:      rGroup{start: ns, end: len(out), lane: laneIdx, bits: bits},
				branch: k,
			}
			nsubs++
		}
		for i := 0; i < nsubs; i++ {
			op.apply(b.Lane(subs[i].g.lane), subs[i].g.bits, subs[i].branch)
			us.gnext = append(us.gnext, subs[i].g)
		}
	}
	us.work, us.swap = out, us.work[:0]
	us.groups, us.gnext = us.gnext, us.groups
}

// processUnit replays one unit's trials from its checkpoint to readout
// on the plan's register (registerSchedule), observing each trial's
// outcome into counts. The batch has one lane per trial and room for
// every local qubit; its lanes start at the checkpoint's width, widen
// at every entry and narrow at every terminal measurement. A cancelled
// run returns early; the caller discards partial counts.
func (m *Machine) processUnit(prog *program, plan *prefixPlan, u replayUnit, base *rng.RNG, counts *dist.Counts, tally *trialTally, cancel *atomic.Bool) {
	ck := u.ck
	lanes := len(u.ids)
	b := statevec.GetBatch(prog.nLocal, lanes)
	defer b.Release()

	us := &unitState{
		work:     make([]laneTrial, 0, len(u.ids)),
		swap:     make([]laneTrial, 0, len(u.ids)),
		branch:   make([]int, len(u.ids)),
		outcomes: make([]int, lanes),
		groups:   make([]rGroup, 0, 4),
		gnext:    make([]rGroup, 0, 4),
	}
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

	var probs [2]float64
	for si := ck.stepIdx; si < len(prog.steps); si++ {
		if cancel != nil && cancel.Load() {
			return
		}
		st := &prog.steps[si]
		for _, e := range plan.reg[si].enter {
			if e >= 0 {
				b.Enter(int(e))
			}
		}
		q0, q1, drop := plan.at(si)
		switch st.kind {
		case stepU1, stepU2:
			applyUnitaryStepBatch(b, st, q0, q1)
		case stepPauli1:
			partitionStoch(b, us, stochOp{
				draw: func(r *rng.RNG) int { return noise.SamplePauli1Q(st.p, r) },
				apply: func(lane *statevec.State, _ []int, k int) {
					if k != 0 {
						lane.Apply1Q(noise.Pauli1Q[k], q0)
					}
				},
			}, tally)
		case stepPauli2:
			partitionStoch(b, us, stochOp{
				draw: func(r *rng.RNG) int {
					ka, kb := noise.SamplePauli2Q(st.p, r)
					return ka | kb<<2
				},
				apply: func(lane *statevec.State, _ []int, k int) {
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
			for _, ks := range [2][]circuit.Matrix2{st.ampK, st.phK} {
				if ks == nil {
					continue
				}
				ks := ks
				partitionStoch(b, us, stochOp{
					prep: func(lane *statevec.State) { krausProbs(lane, ks, q0, probs[:]) },
					draw: func(r *rng.RNG) int { return r.Choose(probs[:]) },
					apply: func(lane *statevec.State, _ []int, k int) {
						krausBranch(lane, ks, q0, k, probs[k])
					},
				}, tally)
			}
		case stepMeasure:
			var p1 float64
			partitionStoch(b, us, stochOp{
				prep: func(lane *statevec.State) { p1 = probOne(lane, q0) },
				draw: func(r *rng.RNG) int {
					if r.Float64() < p1 {
						return 1
					}
					return 0
				},
				apply: func(lane *statevec.State, bits []int, k int) {
					if !drop {
						project(lane, q0, k, false)
					}
					bits[st.cbit] = k
				},
			}, tally)
			if drop {
				// Every live lane belongs to exactly one group, whose bits
				// now hold the lane's outcome: project and drop all lanes
				// at once so they keep a common stride.
				out := us.outcomes[:b.Live()]
				for gi := range us.groups {
					g := &us.groups[gi]
					out[g.lane] = g.bits[st.cbit]
				}
				b.ProjectDrop(q0, out)
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
