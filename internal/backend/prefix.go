package backend

// Prefix-sharing trajectory engine with a lazily grown tape tree.
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
// replay. The engine therefore grows a small *tree* of dominant paths,
// but only where trials actually leave it. A plan starts as the
// dominant path alone. A *site* is a tape entry whose minority branch
// still carries probability >= forkMinProb — only measurements and
// two-operator Kraus selections qualify, the two branch kinds that
// consume exactly one uniform either way. Every Run counts, per site,
// the trials whose walk left the tree there (its departures). At the
// start of a later Run, every site with departures in forkAfterRuns
// earlier Runs forks, until maxTreeLeaves paths exist or the machine's
// cached plans hold planStateBudget bytes (Machine.PlanStats): the node
// splits at the entry, which becomes the fork; the dominant child takes
// the rest of the node's tape, checkpoints and children; and the
// minority child is built to the end of the schedule by restoring the
// node's latest checkpoint before the entry, replaying the recorded path
// to it (asserting every recorded entry bit for bit) and taking the
// minority branch. A program that never runs again pays for one path.
//
// Each tree node owns the tape segment between its parent's fork and
// its own (or its leaf end), its own checkpoints, and — on leaves — the
// classical bits of the full path. A trial burns its uniforms against
// the tape, selects a child at each fork with the very comparison the
// live code would perform, and resolves with zero state work if it
// reaches a leaf; only trials diverging from *every* path in the tree
// replay a suffix.
//
// Concurrency: a Run holds the plan's read lock through its walk and
// replay phases (sched.go). Growth takes the write lock before the Run
// takes its read lock, and never while holding a compute token
// (internal/pool's deadlock rule): the Run's workers take their tokens
// only once the lock is held.
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
//     stream afresh and Skip(k)-ing it. A split keeps every draw index:
//     the fork draws the one uniform its entry drew. Pauli error
//     branches draw extra uniforms (the error-kind draw), which is why
//     tapeBern entries never fork — their minority branch would break
//     the accounting (and is never near-50/50 at calibrated error rates
//     anyway).
//   - Replay from a checkpoint re-executes the remaining schedule with
//     the live code path: the steps between the checkpoint and the
//     divergent draw re-sample their recorded branches (same state,
//     same uniforms, same comparisons — including any forks the trial
//     followed), and the divergent step itself consumes whatever extra
//     draws its branch needs, exactly as the legacy loop would.
//
// The engine therefore changes only how trials are scheduled, never
// what they compute: the tree's shape depends on which Runs came
// before, the Counts of a Run do not.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

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
	// site marks a fork-eligible entry: a Kraus selection or measurement
	// whose minority branch has probability >= forkMinProb.
	site bool
}

// entrySize is the bytes one tape or fork entry holds.
const entrySize = int64(unsafe.Sizeof(tapeEntry{}))

// recorded returns the branch the entry records: the Kraus operator or
// measurement outcome the path takes (0 for tapeBern's "no error").
func (e *tapeEntry) recorded() int {
	if e.op == tapeChoose1 || e.op == tapeMeas1 {
		return 1
	}
	return 0
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

// sameEntry reports whether two entries are equal bit for bit.
func sameEntry(x, y *tapeEntry) bool {
	return x.op == y.op && x.step == y.step && x.site == y.site &&
		math.Float64bits(x.a) == math.Float64bits(y.a) &&
		math.Float64bits(x.b) == math.Float64bits(y.b)
}

// checkpoint is a copy-on-write snapshot of a dominant path: the
// state and classical bits *before* executing schedule step stepIdx,
// with tapeIdx stochastic draws (tape entries plus fork draws) consumed
// along the path so far. Checkpoints are built once per path and only
// ever read afterwards — trials restore by copying into their private
// scratch.
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
	start    int // path draw index of the segment's first entry
	parent   *treeNode
	tape     []tapeEntry
	ckpts    []checkpoint // ascending stepIdx, path-global tapeIdx
	fork     tapeEntry    // valid iff children[0] != nil
	children [2]*treeNode // indexed by tapeEntry.branch outcome
	domBits  []int        // leaf only: bits after the full path
}

// isLeaf reports whether the node ends a dominant path.
func (n *treeNode) isLeaf() bool { return n.children[0] == nil }

// restorePoint returns the latest checkpoint on the root-to-n path
// whose stepIdx is at or before the given schedule step, and the node
// that holds it. The root's initial checkpoint (stepIdx 0) guarantees a
// hit.
func (n *treeNode) restorePoint(step int) (*treeNode, *checkpoint) {
	for node := n; node != nil; node = node.parent {
		ck := node.ckpts
		i := sort.Search(len(ck), func(j int) bool { return ck[j].stepIdx > step })
		if i > 0 {
			return node, &ck[i-1]
		}
	}
	panic("backend: no checkpoint at or before step") // root ckpt 0 prevents this
}

// checkpointBefore returns the latest checkpoint on the root-to-n path
// whose stepIdx is at or before the given schedule step.
func (n *treeNode) checkpointBefore(step int) *checkpoint {
	_, ck := n.restorePoint(step)
	return ck
}

// prefixPlan is the per-program tape tree. Its shape changes only under
// mu's write lock (grow); everything else reads it under the read lock.
type prefixPlan struct {
	root     *treeNode
	nodes    []*treeNode // all nodes in creation order; nodes[i].id == i
	leaves   []*treeNode // leaf nodes
	maxDepth int
	// reg places every schedule step on the register the prefix-sharing
	// engines run (registerSchedule).
	reg []regStep
	// spacing and firstMeas fix where every path snapshots: every
	// spacing steps, and right before the first measurement, so the
	// common "gates stayed dominant, a measurement diverged" replay is
	// bounded by the measurement block.
	spacing   int
	firstMeas int

	// mu guards the tree: a Run holds it for reading through its walk
	// and replay phases, growth for writing.
	mu sync.RWMutex
	// siteMu guards the departure table, which concurrent Runs update
	// while they hold the read lock.
	siteMu sync.Mutex
	sites  map[siteKey]*siteRec
	ready  int   // sites with departures in forkAfterRuns Runs
	runs   int64 // Runs whose departures were recorded

	// The plan's footprint, read without the lock by Machine.PlanStats:
	// checkpoint amplitude buffers (each checkpoint at its own width),
	// tape and fork entries, leaves, and forks grown since the build.
	stateBytes atomic.Int64
	tapeBytes  atomic.Int64
	nLeaves    atomic.Int64
	forksGrown atomic.Int64
}

// siteKey names a site by its node and its index in the node's tape.
type siteKey struct {
	node *treeNode
	idx  int32
}

// siteRec is what earlier Runs observed at one site.
type siteRec struct {
	runs    int32 // Runs with at least one departure here
	lastRun int64 // the Run that last counted toward runs
	departs int64 // departures over all Runs
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
// damping or measurement minority), so any site trials keep leaving
// qualifies; forkAfterRuns keeps a site that trials left once, in one
// Run, from costing a path. Pauli entries never fork (their error branch
// draws an extra uniform, breaking the draw-index accounting).
// planStateBudget bounds memory twice: per plan, the snapshots of one
// path stop once the plan's checkpoints hold it, degrading replay
// granularity instead of exhausting memory on wide states; per machine,
// growth stops once the checkpoints and tapes of all its cached plans
// hold it (Machine.PlanStats).
const (
	maxCheckpoints       = 24
	minCheckpointSpacing = 12
	maxTreeLeaves        = 96
	forkMinProb          = 0.003
	forkAfterRuns        = 2
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
	forksGrown   atomic.Int64
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
	// plans: one per plan at its build, plus one per fork grown.
	TreeLeaves int64
	// ForksGrown counts forks grown into plans by later Runs.
	ForksGrown int64
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
		ForksGrown:         engineStats.forksGrown.Load(),
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
	engineStats.forksGrown.Store(0)
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
	prog.prefixOnce.Do(func() { prog.prefix.Store(buildPrefixPlan(prog)) })
	return prog.prefix.Load()
}

// drawsFrom returns the number of draws a dominant path makes from the
// start of schedule step from to its end, one per stochastic draw: a
// bound on the tape of a segment that starts there.
func drawsFrom(prog *program, from int) int {
	n := 0
	for i := from; i < len(prog.steps); i++ {
		st := &prog.steps[i]
		switch st.kind {
		case stepPauli1, stepPauli2:
			if st.p > 0 {
				n++
			}
		case stepDamp:
			for c := range st.damp {
				if st.damp[c].ks != nil {
					n++
				}
			}
		case stepMeasure:
			n++
		}
	}
	return n
}

// pathRun executes the schedule along one path of the tree, from a
// checkpoint to the end. While replay holds draws it re-executes a
// recorded path: each draw must reproduce its recorded entry bit for bit
// and takes the recorded branch, and no snapshot is taken. The last
// replayed draw is the site being forked: the run takes its minority
// branch and from there on builds node, whose tape records every draw's
// dominant branch and whose checkpoints snapshot the path. Unitary steps
// evolve the state through the kernels the legacy loop runs; diagonal
// updates stay pending until the next population pass, and a snapshot,
// an entry or any other step flushes them, at the same steps on every
// path, so a replay from a checkpoint meets every entry with the state
// the build had.
type pathRun struct {
	prog    *program
	plan    *prefixPlan
	node    *treeNode
	replay  []pathDraw
	s       *statevec.State
	pend    pendList
	bits    []int
	tapeIdx int
}

// pathDraw is one recorded draw of a replayed path: the entry, and the
// branch the path takes there (the recorded branch on a tape, the child
// on the path at a fork).
type pathDraw struct {
	e      tapeEntry
	branch int
}

// runFrom restores checkpoint ck, replays the recorded draws, and builds
// node to the end of the schedule (pathRun).
func (p *prefixPlan) runFrom(prog *program, ck *checkpoint, replay []pathDraw, node *treeNode) {
	r := &pathRun{prog: prog, plan: p, node: node, replay: replay, tapeIdx: ck.tapeIdx}
	r.s = statevec.GetState(prog.nLocal) // room for every qubit to enter
	defer statevec.PutState(r.s)
	src := ck.state
	if src == nil {
		src = emptyRegister
	}
	r.s.CopyFrom(src)
	r.bits = make([]int, prog.numClbits) // the root checkpoint's bits are nil
	copy(r.bits, ck.bits)
	r.run(ck.stepIdx)
}

// run executes steps from..end, then gives node the path's bits.
func (r *pathRun) run(from int) {
	prog, plan := r.prog, r.plan
	for i := from; i < len(prog.steps); i++ {
		st := &prog.steps[i]
		q0, q1, _ := plan.at(i)
		if i == plan.firstMeas {
			r.pend.flush(r.s)
			r.snapshot(i)
		}
		for _, e := range plan.reg[i].enter {
			if e >= 0 {
				r.pend.flush(r.s)
				r.s.Enter(int(e))
			}
		}
		switch st.kind {
		case stepU1, stepU2:
			if !r.pend.addStep(r.s, st, q0, q1) {
				r.pend.flush(r.s)
				applyUnitaryStep(r.s, st, q0, q1)
			}
		case stepPauli1, stepPauli2:
			// Preferred branch: no error. This is the maximum-probability
			// branch whenever p < 1/2, which holds for every calibrated
			// error rate; it is also the only branch with a fixed draw
			// count (one uniform), which is what keeps path draw index ==
			// trial draw index — and why Pauli entries never fork.
			if st.p > 0 {
				r.draw(tapeEntry{op: tapeBern, a: st.p, step: int32(i)})
			}
		case stepDamp:
			for c := range st.damp {
				if st.damp[c].ks != nil {
					r.kraus(&st.damp[c], q0, i)
				}
			}
		case stepMeasure:
			r.measure(st, i)
		}
		if (i+1)%plan.spacing == 0 && i+1 < len(prog.steps) {
			r.pend.flush(r.s)
			r.snapshot(i + 1)
		}
	}
	r.node.domBits = append([]int(nil), r.bits...)
}

// draw records or replays one stochastic draw whose operands the live
// code computed as e, and returns the branch the path takes.
func (r *pathRun) draw(e tapeEntry) int {
	r.tapeIdx++
	if len(r.replay) == 0 {
		r.node.tape = append(r.node.tape, e)
		return e.recorded()
	}
	d := &r.replay[0]
	r.replay = r.replay[1:]
	if !sameEntry(&d.e, &e) {
		panic("backend: tape-tree replay left the recorded path")
	}
	if len(r.replay) == 0 {
		return 1 - e.recorded() // the forked site: into the minority child
	}
	return d.branch
}

// kraus draws one two-operator Kraus selection: branch probabilities
// are computed exactly as a live ApplyKraus1Q would on this state — from
// the populations of the pass that also applies the pending updates —
// and the higher-probability branch is recorded (pre-scaled, as
// ApplyKrausBranch1Q does). Every damping step's Kraus sets have exactly
// two operators (addDamp), so each selection is one draw.
func (r *pathRun) kraus(ch *dampChan, q, step int) {
	probs := ch.probs(r.pend.pops(r.s, q))
	// total replicates rng.Choose's summation order.
	total := probs[0] + probs[1]
	dom, op := 0, tapeChoose0
	if probs[1] > probs[0] {
		dom, op = 1, tapeChoose1
	}
	k := r.draw(tapeEntry{op: op, a: probs[0], b: total, step: int32(step), site: probs[1-dom]/total >= forkMinProb})
	ch.branch(r.s, &r.pend, q, k, probs[k])
}

// measure draws one measurement, recording its likelier outcome, and
// drops the qubit when the measurement is terminal. The population pass
// that gives P(1) also gives each outcome's projection norm.
func (r *pathRun) measure(st *step, step int) {
	q, _, drop := r.plan.at(step)
	var pk [2]float64
	pk[0], pk[1] = r.pend.pops(r.s, q)
	p1 := pk[1]
	op, minor := tapeMeas0, p1
	if p1 >= 0.5 {
		op, minor = tapeMeas1, 1-p1
	}
	k := r.draw(tapeEntry{op: op, a: p1, step: int32(step), site: minor >= forkMinProb})
	r.s.Collapse(q, k, pk[k], drop)
	r.bits[st.cbit] = k
}

// snapshot gives node a checkpoint of the path state before schedule
// step stepIdx, skipping duplicates at the same step and replayed steps
// (their checkpoints exist). Once the plan's checkpoints hold
// planStateBudget no further snapshots are taken — replay restores from
// an ancestor checkpoint instead (restorePoint walks up the tree),
// trading replay granularity for a bounded footprint.
func (r *pathRun) snapshot(stepIdx int) {
	if len(r.replay) > 0 || r.plan.stateBytes.Load() >= planStateBudget {
		return
	}
	if last := lastCkptOnPath(r.node); last != nil && last.stepIdx == stepIdx {
		return
	}
	r.node.ckpts = append(r.node.ckpts, checkpoint{
		stepIdx: stepIdx,
		tapeIdx: r.tapeIdx,
		state:   r.s.Clone(),
		bits:    append([]int(nil), r.bits...),
	})
	r.plan.stateBytes.Add(int64(16) << uint(r.s.N()))
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

// newNode appends a node whose first entry has path draw index start.
func (p *prefixPlan) newNode(parent *treeNode, start int) *treeNode {
	n := &treeNode{id: len(p.nodes), parent: parent, start: start}
	if parent != nil {
		n.depth = parent.depth + 1
	}
	p.maxDepth = max(p.maxDepth, n.depth)
	p.nodes = append(p.nodes, n)
	return n
}

// buildPrefixPlan builds the plan's dominant path: one execution of the
// schedule taking every stochastic step's likelier branch.
func buildPrefixPlan(prog *program) *prefixPlan {
	plan := &prefixPlan{
		reg:       registerSchedule(prog),
		spacing:   checkpointSpacing(len(prog.steps)),
		firstMeas: -1,
	}
	for i := range prog.steps {
		if prog.steps[i].kind == stepMeasure {
			plan.firstMeas = i
			break
		}
	}
	root := plan.newNode(nil, 0)
	root.ckpts = append(root.ckpts, checkpoint{stepIdx: 0, tapeIdx: 0})
	root.tape = make([]tapeEntry, 0, drawsFrom(prog, 0))
	plan.root = root
	plan.leaves = []*treeNode{root}
	plan.runFrom(prog, &root.ckpts[0], nil, root)
	plan.tapeBytes.Store(int64(len(root.tape)) * entrySize)
	plan.nLeaves.Store(1)
	engineStats.plansBuilt.Add(1)
	engineStats.treeLeaves.Add(1)
	return plan
}

// record counts one Run's departures, one key per trial that left the
// tree at a site. Runs call it under the read lock.
func (p *prefixPlan) record(deps [][]siteKey) {
	p.siteMu.Lock()
	defer p.siteMu.Unlock()
	p.runs++
	for _, ks := range deps {
		for _, k := range ks {
			rec := p.sites[k]
			if rec == nil {
				if p.sites == nil {
					p.sites = make(map[siteKey]*siteRec)
				}
				rec = new(siteRec)
				p.sites[k] = rec
			}
			rec.departs++
			if rec.lastRun != p.runs {
				rec.lastRun = p.runs
				if rec.runs++; rec.runs == forkAfterRuns {
					p.ready++
				}
			}
		}
	}
}

// grow forks the plan at every site with departures in forkAfterRuns
// earlier Runs, the sites with the most departures first, until the tree
// has maxTreeLeaves leaves or the machine's cached plans hold its plan
// budget. A Run calls it before taking the read lock, holding no compute
// token.
func (m *Machine) grow(prog *program, p *prefixPlan) {
	p.siteMu.Lock()
	ready := p.ready
	p.siteMu.Unlock()
	budget := m.growthBudget()
	if ready == 0 || m.PlanStats().Bytes() >= budget {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.siteMu.Lock()
	defer p.siteMu.Unlock()
	var sel []siteKey
	for k, rec := range p.sites {
		if rec.runs >= forkAfterRuns {
			sel = append(sel, k)
		}
	}
	sort.Slice(sel, func(i, j int) bool {
		x, y := p.sites[sel[i]], p.sites[sel[j]]
		if x.departs != y.departs {
			return x.departs > y.departs
		}
		if px, py := sel[i].node.start+int(sel[i].idx), sel[j].node.start+int(sel[j].idx); px != py {
			return px < py
		}
		return sel[i].node.id < sel[j].node.id
	})
	sel = sel[:min(len(sel), maxTreeLeaves-len(p.leaves))]
	// Splitting a node moves the entries after the fork to its dominant
	// child; forking a node's sites from the last one up keeps the
	// earlier ones where sel names them.
	sort.Slice(sel, func(i, j int) bool {
		if sel[i].node != sel[j].node {
			return sel[i].node.id < sel[j].node.id
		}
		return sel[i].idx > sel[j].idx
	})
	for _, k := range sel {
		if m.PlanStats().Bytes() >= budget {
			break
		}
		p.fork(prog, k.node, int(k.idx))
	}
	if len(p.leaves) >= maxTreeLeaves {
		p.sites, p.ready = nil, 0
	}
}

// fork splits node n at its tape entry s, a site, and builds the
// minority child: it restores the latest checkpoint before the entry,
// replays the recorded path to it, takes the minority branch and builds
// the child to the end of the schedule. Callers hold both locks.
func (p *prefixPlan) fork(prog *program, n *treeNode, s int) {
	e := n.tape[s]
	holder, ck := n.restorePoint(int(e.step))
	var path []*treeNode
	for x := n; x != holder; x = x.parent {
		path = append(path, x)
	}
	path = append(path, holder)
	var replay []pathDraw
	for i := len(path) - 1; i >= 0; i-- {
		x, from, to := path[i], 0, len(path[i].tape)
		if x == holder {
			from = ck.tapeIdx - x.start
		}
		if x == n {
			to = s + 1
		}
		for j := from; j < to; j++ {
			replay = append(replay, pathDraw{x.tape[j], x.tape[j].recorded()})
		}
		if x != n {
			child := 0
			if x.children[1] == path[i-1] {
				child = 1
			}
			replay = append(replay, pathDraw{x.fork, child})
		}
	}

	dom, minor := p.split(n, s)
	p.rekey(n, s, dom)
	minor.tape = make([]tapeEntry, 0, drawsFrom(prog, int(e.step)))
	p.runFrom(prog, ck, replay, minor)

	p.tapeBytes.Add(int64(len(minor.tape)) * entrySize)
	p.nLeaves.Add(1)
	p.forksGrown.Add(1)
	engineStats.forksGrown.Add(1)
	engineStats.treeLeaves.Add(1)
}

// split turns n into an internal node forking at its tape entry s and
// returns its two new children. n keeps its tape and checkpoints from
// before the entry; the dominant child takes the rest of both — sharing
// their backing arrays, so checkpoint pointers stay valid — and n's old
// fork and children or leaf bits. The minority child is empty.
func (p *prefixPlan) split(n *treeNode, s int) (dom, minor *treeNode) {
	e := n.tape[s]
	dom = p.newNode(n, n.start+s+1)
	dom.tape = n.tape[s+1:]
	k := sort.Search(len(n.ckpts), func(j int) bool { return n.ckpts[j].stepIdx > int(e.step) })
	dom.ckpts = n.ckpts[k:]
	dom.fork, dom.children, dom.domBits = n.fork, n.children, n.domBits
	for _, c := range dom.children {
		if c != nil {
			c.parent = dom
		}
	}
	p.deepen(dom)
	n.tape = n.tape[:s:s]
	n.ckpts = n.ckpts[:k:k]
	n.fork, n.domBits = e, nil
	minor = p.newNode(n, n.start+s+1)
	n.children[e.recorded()] = dom
	n.children[1-e.recorded()] = minor
	for i, l := range p.leaves {
		if l == n {
			p.leaves[i] = dom
		}
	}
	p.leaves = append(p.leaves, minor)
	return dom, minor
}

// deepen sets the depths below node, whose own depth is set, after a
// split moved its subtree one fork further from the root.
func (p *prefixPlan) deepen(node *treeNode) {
	for _, c := range node.children {
		if c != nil {
			c.depth = node.depth + 1
			p.maxDepth = max(p.maxDepth, c.depth)
			p.deepen(c)
		}
	}
}

// rekey moves the departure records of n's entries after s, which the
// split at s gave to the dominant child, onto that child, and drops the
// forked site's record.
func (p *prefixPlan) rekey(n *treeNode, s int, dom *treeNode) {
	for k, rec := range p.sites {
		if k.node != n || int(k.idx) < s {
			continue
		}
		delete(p.sites, k)
		if int(k.idx) == s {
			if rec.runs >= forkAfterRuns {
				p.ready--
			}
			continue
		}
		p.sites[siteKey{dom, k.idx - int32(s) - 1}] = rec
	}
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
