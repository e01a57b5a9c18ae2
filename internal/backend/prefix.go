package backend

// Prefix-sharing trajectory engine with a tape tree.
//
// At the device's error rates most Monte-Carlo trials follow the same
// branch at every stochastic step for a long prefix of the schedule —
// the depolarizing events overwhelmingly sample "no error", the damping
// channels overwhelmingly sample their no-jump operator. Along such a
// shared prefix the statevector is bit-identical across trials, which
// means every state-dependent branch probability (Kraus weights,
// measurement probabilities) is bit-identical too. So the schedule is
// executed once along its *dominant path* — every stochastic step takes
// a fixed preferred branch — recording, per stochastic draw, the exact
// floating-point comparison the live code would perform (the threshold
// tape) plus copy-on-write statevector checkpoints every few steps.
//
// One dominant path is not enough when the schedule contains genuinely
// random branch points: a measurement of an equal superposition sends
// half of all trials off the tape, and each of them pays a suffix
// replay. The engine therefore grows a small *tree* of dominant paths:
// when the dominant-path builder meets a stochastic comparison whose
// minority branch still carries probability >= forkMinProb — only
// measurements and two-operator Kraus selections qualify, the two
// branch kinds that consume exactly one uniform either way — it forks
// the tape and continues building both branches, until maxTreeLeaves
// paths exist. Each tree node owns the tape segment between its
// parent's fork and its own (or its leaf end), its own checkpoints, and
// — on leaves — the classical bits of the full path. A trial burns its
// uniforms against the tape, selects a child at each fork with the very
// comparison the live code would perform, and resolves with zero state
// work if it reaches a leaf; only trials diverging from *every* path in
// the tree replay a suffix.
//
// Soundness (byte-identity with runTrajectory, DESIGN.md section 10):
//
//   - Thresholds are recorded as the operands of the live comparison
//     and re-evaluated with the same operations ((u < p) for Bernoulli
//     draws, (u*total - w0 < 0) for two-branch Kraus selection via
//     rng.Choose, (u < p1) for measurements), so a tape scan and a live
//     trial branch identically on every uniform. Fork entries reuse the
//     same comparisons; they merely route to a child instead of ending
//     the scan.
//   - Every stochastic step consumes exactly one uniform when it takes
//     a recorded branch, and a fork consumes exactly one uniform on
//     *either* branch (measurements and two-operator Choose draw one
//     Float64 regardless of outcome), so the draw index along any
//     root-to-leaf path equals the trial stream's draw index; a
//     checkpoint at path draw index k is restored by deriving the trial
//     stream afresh and Skip(k)-ing it. Pauli error branches draw extra
//     uniforms (the error-kind draw), which is why tapeBern entries
//     never fork — their minority branch would break the accounting
//     (and is never near-50/50 at calibrated error rates anyway).
//   - Replay from a checkpoint re-executes the remaining schedule with
//     the live code path: the steps between the checkpoint and the
//     divergent draw re-sample their recorded branches (same state,
//     same uniforms, same comparisons — including any forks the trial
//     followed), and the divergent step itself consumes whatever extra
//     draws its branch needs, exactly as the legacy loop would.
//
// The engine therefore changes only how trials are scheduled, never
// what they compute.

import (
	"sort"
	"sync/atomic"

	"edm/internal/rng"
	"edm/internal/statevec"
)

// tapeOp discriminates threshold-tape entries; each entry corresponds
// to exactly one uniform drawn from the trial stream.
type tapeOp uint8

const (
	// tapeBern is a depolarizing-event Bernoulli draw whose recorded
	// branch is "no error": a trial follows iff !(u < a), a = p.
	tapeBern tapeOp = iota
	// tapeChoose0 / tapeChoose1 are a two-operator Kraus selection via
	// rng.Choose with recorded branch 0 / 1: Choose returns 0 iff
	// u*b - a < 0, with a = probs[0] and b = probs[0]+probs[1] summed in
	// Choose's order.
	tapeChoose0
	tapeChoose1
	// tapeMeas0 / tapeMeas1 are a measurement with recorded outcome
	// 0 / 1: MeasureQubit observes 1 iff u < a, a = P(1).
	tapeMeas0
	tapeMeas1
)

// tapeEntry is one recorded stochastic draw of a dominant path.
type tapeEntry struct {
	a, b float64
	step int32 // schedule step this draw belongs to
	op   tapeOp
}

// follows reports whether a trial whose next uniform is u takes this
// entry's recorded branch. The comparisons replicate the live code's
// float operations exactly; see the tapeOp constants.
func (e *tapeEntry) follows(u float64) bool {
	switch e.op {
	case tapeBern:
		return !(u < e.a)
	case tapeChoose0:
		return e.choosesZero(u)
	case tapeChoose1:
		return !e.choosesZero(u)
	case tapeMeas1:
		return u < e.a
	default: // tapeMeas0
		return !(u < e.a)
	}
}

// choosesZero replicates rng.Choose's two-weight branch test, statement
// for statement (so an FMA-fusing compiler treats both identically):
// with x := u*total, Choose returns 0 iff x - w0 < 0.
func (e *tapeEntry) choosesZero(u float64) bool {
	x := u * e.b
	x -= e.a
	return x < 0
}

// branch returns the child index a trial whose fork uniform is u
// follows: the measurement outcome, or the rng.Choose branch. Only
// tapeMeas* and tapeChoose* entries fork.
func (e *tapeEntry) branch(u float64) int {
	switch e.op {
	case tapeChoose0, tapeChoose1:
		if e.choosesZero(u) {
			return 0
		}
		return 1
	default: // tapeMeas0, tapeMeas1
		if u < e.a {
			return 1
		}
		return 0
	}
}

// checkpoint is a copy-on-write snapshot of a dominant path: the
// state and classical bits *before* executing schedule step stepIdx,
// with tapeIdx stochastic draws (tape entries plus fork draws) consumed
// along the path so far. Checkpoints are built once per program and
// only ever read afterwards — trials restore by copying into their
// private scratch.
type checkpoint struct {
	stepIdx int
	tapeIdx int
	state   *statevec.State // nil for the initial checkpoint: emptyRegister
	bits    []int
}

// treeNode is one dominant-path segment of the tape tree. The root
// segment starts at schedule step 0; every other segment starts right
// after its parent's fork. Internal nodes end in a fork (children set),
// leaves carry the classical bits of their full root-to-leaf path.
type treeNode struct {
	id       int
	depth    int // forks above this segment
	parent   *treeNode
	tape     []tapeEntry
	ckpts    []checkpoint // ascending stepIdx, path-global tapeIdx
	fork     tapeEntry    // valid iff children[0] != nil
	children [2]*treeNode // indexed by tapeEntry.branch outcome
	domBits  []int        // leaf only: bits after the full path
}

// isLeaf reports whether the node ends a dominant path.
func (n *treeNode) isLeaf() bool { return n.children[0] == nil }

// checkpointBefore returns the latest checkpoint on the root-to-n path
// whose stepIdx is at or before the given schedule step. The root's
// initial checkpoint (stepIdx 0) guarantees a hit.
func (n *treeNode) checkpointBefore(step int) *checkpoint {
	for node := n; node != nil; node = node.parent {
		ck := node.ckpts
		i := sort.Search(len(ck), func(j int) bool { return ck[j].stepIdx > step })
		if i > 0 {
			return &ck[i-1]
		}
	}
	panic("backend: no checkpoint at or before step") // root ckpt 0 prevents this
}

// prefixPlan is the per-program artifact of the dominant-path build: a
// tape tree whose nodes share the threshold-tape and checkpoint
// machinery of the single-path engine.
type prefixPlan struct {
	root     *treeNode
	nodes    []*treeNode // all nodes, depth-first creation order; nodes[0] == root
	leaves   []*treeNode // leaf nodes, depth-first order
	maxDepth int
	// stateBytes is the checkpoint memory footprint (amplitude buffers
	// only, each checkpoint at its own width), reported by benchmarks as
	// the engine's space overhead.
	stateBytes int64
	// reg places every schedule step on the register the prefix-sharing
	// engines run (registerSchedule).
	reg []regStep
}

// outside marks a step qubit that is not in the register when the step
// runs: it has not entered yet, and is exactly |0>.
const outside = -1

// regStep places one schedule step on the prefix-sharing engines'
// register: the register indices of its qubits (outside for a qubit not
// in the register), the register width before the step, the indices at
// which qubits enter right before the step (ascending, -1 when unused),
// and whether it is a terminal measurement that drops its qubit.
type regStep struct {
	q0, q1 int8
	width  uint8
	enter  [2]int8
	drop   bool
}

// at returns step i's qubit indices on the register the engine runs
// (outside for a qubit not in it) and whether the step drops its qubit.
func (p *prefixPlan) at(i int) (q0, q1 int, drop bool) {
	r := &p.reg[i]
	return int(r.q0), int(r.q1), r.drop
}

// registerSchedule places prog's schedule on a register that holds only
// the local qubits that have entered and not been dropped, in ascending
// local-qubit order (DESIGN.md §15):
//
//   - A qubit enters right before its first step that can move it out
//     of |0>: a non-diagonal unitary, a Pauli error step, or damping
//     whose Kraus set fails statevec.KrausKeepsZero. It goes in at its
//     rank among the qubits then live. Steps before that act on it as
//     a qubit outside the register, which is exactly |0>: a diagonal
//     unitary reduces to its |0> row, damping and measurement see
//     populations (register, +0).
//   - A measurement is terminal when no later step of any kind touches
//     its qubit — crosstalk ZZ and barrier idle damping count as
//     touches. A terminal measurement of a qubit in the register drops
//     it right after projecting, and the qubits above it move down one
//     index.
//
// Both orders are monotone in the full register's index, so every kept
// amplitude, branch probability and projection norm is bit-identical to
// the full-register run, whose extra amplitudes are exact zeros.
// engineLegacy and ExactDist keep running prog.steps on the full
// register.
func registerSchedule(prog *program) []regStep {
	last := make([]int, prog.nLocal) // last step touching each local qubit
	for i := range prog.steps {
		st := &prog.steps[i]
		last[st.q0] = i
		if st.kind == stepU2 || st.kind == stepPauli2 {
			last[st.q1] = i
		}
	}
	live := make([]bool, prog.nLocal)
	width := 0
	index := func(q int) int8 { // register index of local qubit q
		if !live[q] {
			return outside
		}
		n := int8(0)
		for p := 0; p < q; p++ {
			if live[p] {
				n++
			}
		}
		return n
	}
	reg := make([]regStep, len(prog.steps))
	for i := range prog.steps {
		st := &prog.steps[i]
		two := st.kind == stepU2 || st.kind == stepPauli2
		r := regStep{q1: outside, width: uint8(width), enter: [2]int8{-1, -1}}
		var in [2]int // local qubits entering before this step
		ne := 0
		if entersAt(st) {
			for k, q := range [2]int{st.q0, st.q1} {
				if (k == 0 || two) && !live[q] {
					live[q] = true
					in[ne] = q
					ne++
				}
			}
		}
		width += ne
		r.q0 = index(st.q0)
		if two {
			r.q1 = index(st.q1)
		}
		// Each entering qubit goes in at its final index, lower index
		// first: the higher one is not in the register yet when the lower
		// one enters, so the lower one's index is already final.
		for k := 0; k < ne; k++ {
			r.enter[k] = index(in[k])
		}
		if ne == 2 && r.enter[0] > r.enter[1] {
			r.enter[0], r.enter[1] = r.enter[1], r.enter[0]
		}
		if st.kind == stepMeasure && last[st.q0] == i && live[st.q0] {
			r.drop = true
			live[st.q0] = false
			width--
		}
		reg[i] = r
	}
	return reg
}

// entersAt reports whether a step can move its qubits out of |0>, so
// that any of them outside the register enter right before it.
func entersAt(st *step) bool {
	switch st.kind {
	case stepU1, stepU2:
		return st.class != matDiag
	case stepPauli1, stepPauli2:
		return true
	case stepDamp:
		return !st.damp[0].keepsZero || !st.damp[1].keepsZero
	}
	return false // stepMeasure
}

// emptyRegister is the register before step 0, where no qubit has
// entered: the width-0 state with amplitude 1. The root checkpoint's nil
// state restores it. Read-only.
var emptyRegister = statevec.NewState(0)

// Tree and checkpoint budgets. A fork adds a dominant path for a
// minority branch: trials whose first divergence lands on a forked site
// keep walking the tape at zero state cost, and when they diverge again
// later they replay from one of the new path's own checkpoints — so
// every fork shifts replay suffixes toward the tail of the schedule.
// forkMinProb is deliberately small (a fraction of a typical calibrated
// damping or measurement minority) so the depth-first build spends the
// leaf budget on the earliest qualifying sites, where the suffix saving
// is largest; Pauli entries still never fork (their error branch draws
// an extra uniform, breaking the draw-index accounting). Checkpoint
// memory is bounded twice over: the worst case is
// maxTreeLeaves * (maxCheckpoints+1) * 16*2^n bytes, and
// planStateBudget caps the actual footprint — forks stop at half the
// budget (reserving room for the paths already committed) and
// checkpoint snapshots stop at the full budget, degrading replay
// granularity instead of exhausting memory on wide states.
const (
	maxCheckpoints       = 24
	minCheckpointSpacing = 12
	maxTreeLeaves        = 96
	forkMinProb          = 0.003
	planStateBudget      = 256 << 20
)

func checkpointSpacing(nSteps int) int {
	sp := (nSteps + maxCheckpoints - 1) / maxCheckpoints
	if sp < minCheckpointSpacing {
		sp = minCheckpointSpacing
	}
	return sp
}

// Engine counters, surfaced through EngineStatsSnapshot (cmd/edm
// -cachestats). Plan-level counters cost nothing per trial; trial-level
// counters are accumulated per worker and flushed once.
var engineStats struct {
	plansBuilt   atomic.Int64
	treeLeaves   atomic.Int64
	fullDominant atomic.Int64
	divergent    atomic.Int64

	// Stabilizer engine counters (stab.go).
	stabPrograms    atomic.Int64
	stabFallbacks   atomic.Int64
	stabPrefixSteps atomic.Int64
	stabMaxWords    atomic.Int64
	stabTrials      atomic.Int64

	// Batched replay counters (batchreplay.go / sched.go).
	batchBuckets atomic.Int64
	batchUnits   atomic.Int64
	batchTrials  atomic.Int64
	batchLanes   atomic.Int64
	batchClones  atomic.Int64
}

// EngineStats is a snapshot of the trajectory engine's counters.
type EngineStats struct {
	// PlansBuilt counts prefix plans built.
	PlansBuilt int64
	// TreeLeaves is the total number of dominant paths across built
	// plans (1 per plan when no fork criterion fired).
	TreeLeaves int64
	// FullDominantTrials resolved on a leaf with zero state work;
	// DivergentTrials replayed a suffix from a checkpoint.
	FullDominantTrials int64
	DivergentTrials    int64

	// StabPrograms / StabFallbacks count analyzed programs whose whole
	// schedule converted to tableau operations vs those with a
	// non-Clifford step (which run on the statevector engine instead).
	StabPrograms  int64
	StabFallbacks int64
	// StabPrefixSteps is the total Clifford prefix length across
	// analyzed programs (equal to the schedule length for converted
	// programs); StabMaxWords is the widest tableau row, in 64-bit
	// words, any stabilizer plan used.
	StabPrefixSteps int64
	StabMaxWords    int64
	// StabTrials counts trials executed on the tableau.
	StabTrials int64

	// Batched-replay occupancy. BatchBuckets counts distinct
	// (checkpoint) buckets the scheduler formed; BatchUnits counts the
	// replay units processed (buckets after fragmentation); BatchTrials
	// counts divergent trials replayed through the batched path, so
	// BatchTrials/BatchUnits is the mean batch size. BatchLanes is the
	// total live-lane high-water across units, and BatchLaneClones counts
	// lane copies taken when a group split at a stochastic step.
	BatchBuckets    int64
	BatchUnits      int64
	BatchTrials     int64
	BatchLanes      int64
	BatchLaneClones int64
	// UnitSteals is always 0: replay units are claimed from one shared
	// cursor and never migrate between workers. The field stays because
	// perfbench reports it.
	UnitSteals int64
}

// EngineStatsSnapshot returns the process-wide trajectory engine
// counters.
func EngineStatsSnapshot() EngineStats {
	return EngineStats{
		PlansBuilt:         engineStats.plansBuilt.Load(),
		TreeLeaves:         engineStats.treeLeaves.Load(),
		FullDominantTrials: engineStats.fullDominant.Load(),
		DivergentTrials:    engineStats.divergent.Load(),
		StabPrograms:       engineStats.stabPrograms.Load(),
		StabFallbacks:      engineStats.stabFallbacks.Load(),
		StabPrefixSteps:    engineStats.stabPrefixSteps.Load(),
		StabMaxWords:       engineStats.stabMaxWords.Load(),
		StabTrials:         engineStats.stabTrials.Load(),

		BatchBuckets:    engineStats.batchBuckets.Load(),
		BatchUnits:      engineStats.batchUnits.Load(),
		BatchTrials:     engineStats.batchTrials.Load(),
		BatchLanes:      engineStats.batchLanes.Load(),
		BatchLaneClones: engineStats.batchClones.Load(),
	}
}

// ResetEngineStats zeroes the engine counters (tests and benchmarks).
func ResetEngineStats() {
	engineStats.plansBuilt.Store(0)
	engineStats.treeLeaves.Store(0)
	engineStats.fullDominant.Store(0)
	engineStats.divergent.Store(0)
	engineStats.stabPrograms.Store(0)
	engineStats.stabFallbacks.Store(0)
	engineStats.stabPrefixSteps.Store(0)
	engineStats.stabMaxWords.Store(0)
	engineStats.stabTrials.Store(0)
	engineStats.batchBuckets.Store(0)
	engineStats.batchUnits.Store(0)
	engineStats.batchTrials.Store(0)
	engineStats.batchLanes.Store(0)
	engineStats.batchClones.Store(0)
}

// planFor returns the program's prefix plan, building it on first use.
// It returns nil exactly when the machine runs the legacy engine.
func (m *Machine) planFor(prog *program) *prefixPlan {
	if m.engine == engineLegacy {
		return nil
	}
	prog.prefixOnce.Do(func() { prog.prefix = buildPrefixPlan(prog) })
	return prog.prefix
}

// treeBuilder carries the shared state of the depth-first dominant-path
// build: the leaf budget, checkpoint spacing, and the schedule position
// of the first measurement (which gets an extra snapshot so the common
// "gates stayed dominant, a measurement diverged" replay is bounded by
// the measurement block).
type treeBuilder struct {
	prog      *program
	plan      *prefixPlan
	spacing   int
	firstMeas int
	leaves    int
}

func (b *treeBuilder) newNode(parent *treeNode) *treeNode {
	n := &treeNode{id: len(b.plan.nodes), parent: parent}
	if parent != nil {
		n.depth = parent.depth + 1
	}
	if n.depth > b.plan.maxDepth {
		b.plan.maxDepth = n.depth
	}
	b.plan.nodes = append(b.plan.nodes, n)
	return n
}

// lastCkptOnPath returns the most recent checkpoint on the root-to-node
// path, or nil before the initial checkpoint exists.
func lastCkptOnPath(node *treeNode) *checkpoint {
	for n := node; n != nil; n = n.parent {
		if len(n.ckpts) > 0 {
			return &n.ckpts[len(n.ckpts)-1]
		}
	}
	return nil
}

// canFork reports whether the build may open another dominant path:
// the leaf budget has room and checkpoint memory is below half the
// plan budget (the committed paths still snapshot as they build).
func (b *treeBuilder) canFork() bool {
	return b.leaves < maxTreeLeaves && b.plan.stateBytes < planStateBudget/2
}

// snapshot records a checkpoint of the current path state before
// schedule step stepIdx with tapeIdx path draws consumed, skipping
// duplicates at the same step. Once the plan's checkpoint memory
// reaches planStateBudget no further snapshots are taken — replay
// restores from an ancestor checkpoint instead (lastCkptOnPath /
// checkpointBefore already walk up the tree), trading replay
// granularity for a bounded footprint.
func (b *treeBuilder) snapshot(node *treeNode, s *statevec.State, bits []int, stepIdx, tapeIdx int) {
	if last := lastCkptOnPath(node); last != nil && last.stepIdx == stepIdx {
		return
	}
	if b.plan.stateBytes >= planStateBudget {
		return
	}
	node.ckpts = append(node.ckpts, checkpoint{
		stepIdx: stepIdx,
		tapeIdx: tapeIdx,
		state:   s.Clone(),
		bits:    append([]int(nil), bits...),
	})
	b.plan.stateBytes += int64(16) << uint(s.N())
}

// buildPrefixPlan builds the tape tree: the dominant path is executed
// once per segment — unitary steps evolve the state through the shared
// kernels, stochastic steps record their threshold and apply their
// preferred branch — and near-50/50 comparisons fork the build while
// the leaf budget lasts. Every damping step's Kraus sets have exactly
// two operators (addDamp), so each selection is one tape entry.
func buildPrefixPlan(prog *program) *prefixPlan {
	plan := &prefixPlan{reg: registerSchedule(prog)}
	b := &treeBuilder{
		prog:      prog,
		plan:      plan,
		spacing:   checkpointSpacing(len(prog.steps)),
		firstMeas: -1,
		leaves:    1,
	}
	for i := range prog.steps {
		if prog.steps[i].kind == stepMeasure {
			b.firstMeas = i
			break
		}
	}
	root := b.newNode(nil)
	root.ckpts = append(root.ckpts, checkpoint{stepIdx: 0, tapeIdx: 0})
	plan.root = root
	s := statevec.GetState(prog.nLocal) // room for every qubit to enter
	defer statevec.PutState(s)
	s.CopyFrom(emptyRegister)
	bits := make([]int, prog.numClbits)
	b.build(root, s, new(pendList), bits, 0, 0, 0)
	for _, n := range plan.nodes {
		if n.isLeaf() {
			plan.leaves = append(plan.leaves, n)
		}
	}
	engineStats.plansBuilt.Add(1)
	engineStats.treeLeaves.Add(int64(len(plan.leaves)))
	return plan
}

// Sub-step positions for resuming a schedule step after a fork: a damp
// step samples its amplitude channel then its dephasing channel, and a
// fork at either leaves the rest of the step to the children.
const (
	subStart  = 0 // execute the whole step
	subAfterA = 1 // amplitude Kraus done (damp) / measurement done
	subAfterP = 2 // both damp channels done
)

// build executes the dominant path of node's segment from schedule
// position (startStep, startSub) with tapeIdx path draws consumed. s,
// its pending diagonal updates and bits are the running path state;
// build either completes the schedule (node becomes a leaf) or forks
// and recurses into both children, cloning the state once for the
// minority branch. Diagonal updates stay pending until the next
// population pass; a snapshot, an entry or any other step flushes them.
func (b *treeBuilder) build(node *treeNode, s *statevec.State, pend *pendList, bits []int, startStep, startSub, tapeIdx int) {
	prog := b.prog
	for i := startStep; i < len(prog.steps); i++ {
		st := &prog.steps[i]
		q0, q1, _ := b.plan.at(i)
		sub := subStart
		if i == startStep {
			sub = startSub
		}
		if sub == subStart {
			if i == b.firstMeas {
				pend.flush(s)
				b.snapshot(node, s, bits, i, tapeIdx)
			}
			for _, e := range b.plan.reg[i].enter {
				if e >= 0 {
					pend.flush(s)
					s.Enter(int(e))
				}
			}
		}
		switch st.kind {
		case stepU1, stepU2:
			if !pend.addStep(s, st, q0, q1) {
				pend.flush(s)
				applyUnitaryStep(s, st, q0, q1)
			}
		case stepPauli1, stepPauli2:
			// Preferred branch: no error. This is the maximum-probability
			// branch whenever p < 1/2, which holds for every calibrated
			// error rate; it is also the only branch with a fixed draw
			// count (one uniform), which is what keeps path draw index ==
			// trial draw index — and why Pauli entries never fork.
			if st.p > 0 {
				node.tape = append(node.tape, tapeEntry{op: tapeBern, a: st.p, step: int32(i)})
				tapeIdx++
			}
		case stepDamp:
			for c, next := range [2]int{subAfterA, subAfterP} {
				if st.damp[c].ks != nil && sub < next {
					if b.emitKraus(node, s, pend, bits, &st.damp[c], q0, i, next, &tapeIdx) {
						return
					}
				}
			}
		case stepMeasure:
			if sub == subStart {
				if b.emitMeasure(node, s, pend, bits, st, i, &tapeIdx) {
					return
				}
			}
		}
		if (i+1)%b.spacing == 0 && i+1 < len(prog.steps) {
			pend.flush(s)
			b.snapshot(node, s, bits, i+1, tapeIdx)
		}
	}
	node.domBits = append([]int(nil), bits...)
}

// fork turns node into an internal node at the given entry and builds
// both children from schedule position (stepIdx, nextSub): apply is
// called with the branch index and the branch's state to take the
// branch's state update. The dominant branch continues in place; the
// minority branch gets a copy with room for every qubit to enter. Forks
// come right after a population pass, so no update is pending on s.
func (b *treeBuilder) fork(node *treeNode, s *statevec.State, pend *pendList, bits []int, entry tapeEntry,
	dom, stepIdx, nextSub, tapeIdx int, apply func(branch int, bs *statevec.State, bp *pendList, bb []int)) {
	node.fork = entry
	b.leaves++
	other := statevec.GetState(b.prog.nLocal)
	defer statevec.PutState(other)
	other.CopyFrom(s)
	otherBits := append([]int(nil), bits...)
	var otherPend pendList
	cd := b.newNode(node)
	node.children[dom] = cd
	apply(dom, s, pend, bits)
	b.build(cd, s, pend, bits, stepIdx, nextSub, tapeIdx)
	co := b.newNode(node)
	node.children[1-dom] = co
	apply(1-dom, other, &otherPend, otherBits)
	b.build(co, other, &otherPend, otherBits, stepIdx, nextSub, tapeIdx)
}

// emitKraus records one two-operator Kraus selection on the dominant
// path: branch probabilities are computed exactly as a live
// ApplyKraus1Q would on this state — from the populations of the pass
// that also applies the pending updates — and the higher-probability
// branch is recorded and taken (pre-scaled, as ApplyKrausBranch1Q
// does). It returns true if the selection forked (the children own the
// rest of the schedule).
func (b *treeBuilder) emitKraus(node *treeNode, s *statevec.State, pend *pendList, bits []int,
	ch *dampChan, q, stepIdx, nextSub int, tapeIdx *int) bool {
	probs := ch.probs(pend.pops(s, q))
	// total replicates rng.Choose's summation order.
	total := probs[0] + probs[1]
	dom := 0
	op := tapeChoose0
	if probs[1] > probs[0] {
		dom = 1
		op = tapeChoose1
	}
	entry := tapeEntry{op: op, a: probs[0], b: total, step: int32(stepIdx)}
	if minor := probs[1-dom] / total; minor >= forkMinProb && b.canFork() {
		*tapeIdx++
		b.fork(node, s, pend, bits, entry, dom, stepIdx, nextSub, *tapeIdx,
			func(branch int, bs *statevec.State, bp *pendList, _ []int) {
				ch.branch(bs, bp, q, branch, probs[branch])
			})
		return true
	}
	node.tape = append(node.tape, entry)
	*tapeIdx++
	ch.branch(s, pend, q, dom, probs[dom])
	return false
}

// emitMeasure records one measurement on the dominant path, forking
// when the outcome is near-50/50 (the canonical genuinely random branch
// point: measuring an equal superposition), and drops the qubit on every
// branch when the measurement is terminal. The population pass that
// gives P(1) also gives each outcome's projection norm. It returns true
// if the measurement forked.
func (b *treeBuilder) emitMeasure(node *treeNode, s *statevec.State, pend *pendList, bits []int,
	st *step, stepIdx int, tapeIdx *int) bool {
	q, _, drop := b.plan.at(stepIdx)
	var pk [2]float64
	pk[0], pk[1] = pend.pops(s, q)
	p1 := pk[1]
	dom := 0
	op := tapeMeas0
	if p1 >= 0.5 {
		dom = 1
		op = tapeMeas1
	}
	entry := tapeEntry{op: op, a: p1, step: int32(stepIdx)}
	minor := p1
	if dom == 1 {
		minor = 1 - p1
	}
	if minor >= forkMinProb && b.canFork() {
		*tapeIdx++
		b.fork(node, s, pend, bits, entry, dom, stepIdx, subAfterA, *tapeIdx,
			func(branch int, bs *statevec.State, _ *pendList, bb []int) {
				bs.Collapse(q, branch, pk[branch], drop)
				bb[st.cbit] = branch
			})
		return true
	}
	node.tape = append(node.tape, entry)
	*tapeIdx++
	s.Collapse(q, dom, pk[dom], drop)
	bits[st.cbit] = dom
	return false
}

// walkTape burns a trial stream's uniforms against the tape tree: every
// tape entry consumes one uniform and is re-evaluated with the live
// comparison, every fork consumes one uniform and selects a child. It
// returns the node where the walk ended, the schedule step of the first
// divergent draw (-1 for a fully dominant trial — the node is then a
// leaf and rt is positioned exactly before the readout draws), and the
// path draw index of the divergent draw (-1 when dominant). It is the
// batched replay scheduler's walk phase (sched.go): state-free, one
// comparison per draw.
func walkTape(plan *prefixPlan, rt *rng.RNG) (node *treeNode, divStep, divPos int) {
	node = plan.root
	pos := 0 // path draw index
	for {
		tape := node.tape
		for i := range tape {
			if !tape[i].follows(rt.Float64()) {
				return node, int(tape[i].step), pos + i
			}
		}
		pos += len(tape)
		if node.isLeaf() {
			return node, -1, -1
		}
		// Fork: one uniform selects the child with the live comparison.
		node = node.children[node.fork.branch(rt.Float64())]
		pos++
	}
}
