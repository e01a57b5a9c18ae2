package backend

import (
	"reflect"
	"testing"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/statevec"
	"edm/internal/workloads"
)

// physicalWorkloads compiles every paper workload onto the Melbourne
// device, returning the physical executables the byte-identity tests
// run on both engines.
func physicalWorkloads(t testing.TB) map[string]*mapper.Executable {
	t.Helper()
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	comp := mapper.NewCompiler(cal)
	out := make(map[string]*mapper.Executable)
	for _, w := range workloads.All() {
		exe, err := comp.Compile(w.Circuit)
		if err != nil {
			t.Fatalf("compile %s: %v", w.Name, err)
		}
		out[w.Name] = exe
	}
	return out
}

func countsEqual(a, b *dist.Counts) bool {
	return a.N() == b.N() && a.Total() == b.Total() &&
		reflect.DeepEqual(a.Sorted(), b.Sorted())
}

// TestPrefixEngineByteIdentityWorkloads is the acceptance gate of the
// prefix-sharing engine: for every workload in internal/workloads, the
// Counts it produces must be byte-identical to the legacy trajectory
// loop's, on both the serial path (trials < parallelThreshold) and the
// striped parallel path. ci.sh re-runs it under -race at GOMAXPROCS=1
// and at full width.
func TestPrefixEngineByteIdentityWorkloads(t *testing.T) {
	exes := physicalWorkloads(t)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	for name, exe := range exes {
		for _, trials := range []int{100, 1000} { // serial and parallel
			legacy := New(cal)
			legacy.engine = engineLegacy
			prefix := New(cal)
			want, err := legacy.Run(exe.Circuit, trials, rng.New(42))
			if err != nil {
				t.Fatalf("%s legacy run: %v", name, err)
			}
			got, err := prefix.Run(exe.Circuit, trials, rng.New(42))
			if err != nil {
				t.Fatalf("%s prefix run: %v", name, err)
			}
			if !countsEqual(want, got) {
				t.Errorf("%s (%d trials): prefix-sharing Counts differ from legacy", name, trials)
			}
		}
	}
}

// TestPrefixEngineByteIdentityCached pins the interaction with the PR 4
// run cache: the prefix engine sits below it (same key), so a cached
// prefix machine must serve histograms byte-identical to an uncached
// legacy machine.
func TestPrefixEngineByteIdentityCached(t *testing.T) {
	exes := physicalWorkloads(t)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	exe := exes["bv-6"].Circuit
	legacy := New(cal)
	legacy.engine = engineLegacy
	cached := New(cal)
	cached.EnableRunCache()
	want, err := legacy.Run(exe, 600, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	first, err := cached.Run(exe, 600, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	again, err := cached.Run(exe, 600, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if !countsEqual(want, first) {
		t.Error("cached prefix Counts differ from uncached legacy")
	}
	if first != again {
		t.Error("run cache missed on an identical (circuit, trials, stream) key")
	}
	if s := cached.RunCacheStats(); s.Hits != 1 {
		t.Errorf("run cache hits = %d, want 1", s.Hits)
	}
}

// countingStream is the counting RNG wrapper of the draw-order contract
// test: it exposes how many Uint64 draws a computation consumed from a
// derived trial stream, via state deltas (every draw advances the
// SplitMix64 state by the fixed increment, so the count is exact even
// through Intn's rejection loop).
type countingStream struct {
	r    *rng.RNG
	base uint64
}

func newCountingStream(root *rng.RNG, t int) *countingStream {
	r := root.DeriveN("trial", t)
	return &countingStream{r: r, base: r.State()}
}

func (c *countingStream) draws() uint64 { return rng.DrawCount(c.base, c.r.State()) }

// growPlan runs exe on m with fresh seeds until its plan has grown the
// forks trials asked for: forkAfterRuns Runs record where trials left
// the tree, and the next Run forks those sites before it walks.
func growPlan(t testing.TB, m *Machine, exe *circuit.Circuit, trials int) {
	t.Helper()
	for i := 0; i <= forkAfterRuns; i++ {
		if _, err := m.Run(exe, trials, rng.New(uint64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
}

// pathDraws returns the number of stochastic draws a trial consumes
// scanning from the root through node's tape segment: one per tape
// entry on the path, plus one per fork crossed to reach node.
func pathDraws(n *treeNode) uint64 {
	var d uint64
	for node := n; node != nil; node = node.parent {
		d += uint64(len(node.tape))
		if node.parent != nil {
			d++ // the fork draw that selected this node
		}
	}
	return d
}

// TestPrefixDrawOrderContract proves the default engine consumes each
// trial's stream in exactly the same order and count as runTrajectory:
// for every trial of every workload, the legacy loop and Machine.Run
// must land the trial stream on the same final state (equal total draw
// counts from the same derivation base) and produce the same outcome
// bits. testHookReadout reports each trial's outcome and final stream
// from the batched engine's two readout sites, exactly once per trial;
// walkTape reports the node where the trial's walk ended and its
// divergence index. The test also checks the engine's internal
// accounting — a fully dominant trial consumes one draw per tape entry
// and fork on its path plus its readout draws, and a divergent trial
// diverged inside its node's path — and that the suite exercises fully
// dominant trials on the root leaf, dominant trials on forked leaves,
// and divergent trials. Each circuit runs forkAfterRuns+1 times: the
// first Runs walk the fresh dominant path and record where trials left
// it, and the last grows its forks first.
func TestPrefixDrawOrderContract(t *testing.T) {
	exes := physicalWorkloads(t)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	m := New(cal)
	m.engine = engineStatevector

	var saw drawCoverage
	// The paper workloads plus a GHZ chain, whose first measurement is an
	// exact 50/50 branch point — the canonical fork.
	circuits := map[string]*circuit.Circuit{"ghz-chain": benchCircuit(6)}
	for name, exe := range exes {
		circuits[name] = exe.Circuit
	}

	for name, exe := range circuits {
		for run := 0; run <= forkAfterRuns; run++ {
			checkDrawOrder(t, m, name, exe, rng.New(uint64(97+run)), &saw)
		}
	}
	if !saw.dominant || !saw.forked || !saw.divergent {
		t.Fatalf("contract test lacks coverage: dominant=%v forked=%v divergent=%v",
			saw.dominant, saw.forked, saw.divergent)
	}
}

// drawCoverage records which kinds of trial the contract test saw: fully
// dominant ones, dominant ones on a forked leaf, and divergent ones.
type drawCoverage struct{ dominant, forked, divergent bool }

// checkDrawOrder runs exe once on m from root and checks every trial's
// draw order against the legacy loop (TestPrefixDrawOrderContract).
func checkDrawOrder(t *testing.T, m *Machine, name string, exe *circuit.Circuit, root *rng.RNG, saw *drawCoverage) {
	t.Helper()
	const trials = 300
	type readout struct {
		calls int
		out   bitstr.BitString
		final rng.RNG
	}
	var hooked [trials]readout
	// Workers report distinct trials, so each writes its own element.
	testHookReadout = func(trial int, out bitstr.BitString, final *rng.RNG) {
		hooked[trial].calls++
		hooked[trial].out = out
		hooked[trial].final = *final
	}
	defer func() { testHookReadout = nil }()
	if _, err := m.Run(exe, trials, root); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prog, err := m.getProgram(exe)
	if err != nil {
		t.Fatal(err)
	}
	plan := m.planFor(prog)
	if plan == nil {
		t.Fatalf("%s: no prefix plan", name)
	}
	sLegacy := statevec.NewState(prog.nLocal)
	bitsLegacy := make([]int, prog.numClbits)
	for trial := 0; trial < trials; trial++ {
		legacyStream := newCountingStream(root, trial)
		want := m.runTrajectory(prog, sLegacy, bitsLegacy, legacyStream.r)

		h := &hooked[trial]
		if h.calls != 1 {
			t.Fatalf("%s trial %d: hook invoked %d times, want 1", name, trial, h.calls)
		}
		prefixStream := &countingStream{r: &h.final, base: root.DeriveN("trial", trial).State()}

		if want != h.out {
			t.Fatalf("%s trial %d: outcome differs (legacy %v, prefix %v)", name, trial, want, h.out)
		}
		if legacyStream.draws() != prefixStream.draws() {
			t.Fatalf("%s trial %d: draw count differs (legacy %d, prefix %d)",
				name, trial, legacyStream.draws(), prefixStream.draws())
		}
		if legacyStream.r.State() != prefixStream.r.State() {
			t.Fatalf("%s trial %d: final stream state differs", name, trial)
		}
		node, _, div := walkTape(plan, root.DeriveN("trial", trial))
		if node.id < 0 || node.id >= len(plan.nodes) || plan.nodes[node.id] != node {
			t.Fatalf("%s trial %d: walk node id %d out of range", name, trial, node.id)
		}
		if div < 0 {
			if !node.isLeaf() {
				t.Fatalf("%s trial %d: dominant trial ended on internal node %d", name, trial, node.id)
			}
			saw.dominant = true
			if node.depth > 0 {
				saw.forked = true
			}
			// A fully dominant trial consumes one draw per tape entry on
			// its path, one per fork crossed, plus one readout draw per
			// measured bit — nothing else.
			wantDraws := pathDraws(node)
			for _, q := range prog.measPhys {
				if q >= 0 {
					wantDraws++
				}
			}
			if prefixStream.draws() != wantDraws {
				t.Fatalf("%s trial %d: dominant trial drew %d, want %d",
					name, trial, prefixStream.draws(), wantDraws)
			}
		} else {
			saw.divergent = true
			if uint64(div) >= pathDraws(node) {
				t.Fatalf("%s trial %d: divergence index %d past node %d's path draws",
					name, trial, div, node.id)
			}
		}
	}
}

// pathNodes returns the root-to-leaf node sequence of a leaf.
func pathNodes(leaf *treeNode) []*treeNode {
	var rev []*treeNode
	for n := leaf; n != nil; n = n.parent {
		rev = append(rev, n)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// TestPrefixPlanShape sanity-checks the built tape tree: node ids index
// plan.nodes, internal nodes fork into two children while leaves carry
// path bits, per-path checkpoints are strictly ordered with draw
// indices that count exactly the path draws of earlier steps, each
// checkpoint's state is as wide as the register at its step (terminal
// measurements shrink it) and stateBytes sums exactly those widths,
// tapes are ordered by schedule step, and checkpointBefore returns the
// tightest on-path checkpoint. The GHZ bench circuit measures an equal
// superposition, so once trials have left that measurement in
// forkAfterRuns Runs the plan must actually fork.
func TestPrefixPlanShape(t *testing.T) {
	m := noisyMachine(7)
	exe := benchCircuit(14)
	prog, err := m.getProgram(exe)
	if err != nil {
		t.Fatal(err)
	}
	plan := m.planFor(prog)
	if plan == nil {
		t.Fatal("no plan")
	}
	growPlan(t, m, exe, 300)
	if got := m.planFor(prog); got != plan {
		t.Fatal("planFor rebuilt the plan")
	}
	if len(plan.leaves) < 2 || plan.maxDepth < 1 {
		t.Fatalf("GHZ plan did not fork: %d leaves, depth %d", len(plan.leaves), plan.maxDepth)
	}
	if len(plan.leaves) > maxTreeLeaves {
		t.Fatalf("%d leaves exceed the budget %d", len(plan.leaves), maxTreeLeaves)
	}
	if plan.root != plan.nodes[0] {
		t.Fatal("nodes[0] is not the root")
	}
	if ck0 := &plan.root.ckpts[0]; len(plan.root.ckpts) == 0 ||
		ck0.stepIdx != 0 || ck0.tapeIdx != 0 || ck0.state != nil {
		t.Fatal("root lacks the initial zero checkpoint")
	}

	// Global structure: ids index plan.nodes, internal nodes have both
	// children with eligible fork ops, leaves have domBits.
	leaves := 0
	var ckptBytes int64
	narrowed := false
	for i, n := range plan.nodes {
		if n.id != i {
			t.Fatalf("node %d has id %d", i, n.id)
		}
		if n.isLeaf() {
			leaves++
			if len(n.domBits) != prog.numClbits {
				t.Fatalf("leaf %d: domBits length %d, want %d", n.id, len(n.domBits), prog.numClbits)
			}
			if n.children[1] != nil {
				t.Fatalf("leaf %d has a lone child", n.id)
			}
		} else {
			if n.children[1] == nil || n.domBits != nil {
				t.Fatalf("internal node %d malformed", n.id)
			}
			if op := n.fork.op; op == tapeBern {
				t.Fatalf("node %d forks on a Bernoulli entry", n.id)
			}
			if n.children[0].parent != n || n.children[1].parent != n {
				t.Fatalf("node %d children have wrong parent", n.id)
			}
			if n.children[0].depth != n.depth+1 {
				t.Fatalf("node %d child depth %d, want %d", n.id, n.children[0].depth, n.depth+1)
			}
		}
		for j := range n.ckpts {
			if ck := &n.ckpts[j]; ck.state != nil {
				w := int(plan.reg[ck.stepIdx].width)
				ckptBytes += 16 << uint(w)
				narrowed = narrowed || w < prog.nLocal
			}
		}
	}
	if leaves != len(plan.leaves) {
		t.Fatalf("plan.leaves has %d entries, tree has %d leaves", len(plan.leaves), leaves)
	}
	if plan.stateBytes.Load() != ckptBytes {
		t.Fatalf("stateBytes = %d, want %d (16 bytes * 2^width summed over state checkpoints)", plan.stateBytes.Load(), ckptBytes)
	}
	if !narrowed {
		t.Fatal("no checkpoint lies after a terminal measurement; the width invariant is untested")
	}

	// Per-path structure. A path's draw sequence is each node's tape
	// followed by its fork draw; checkpoints must be step-ascending along
	// the path with tapeIdx equal to the path draws of earlier steps.
	for _, leaf := range plan.leaves {
		path := pathNodes(leaf)
		type draw struct{ step int }
		var draws []draw
		var ckpts []checkpoint
		for _, n := range path {
			for _, e := range n.tape {
				draws = append(draws, draw{int(e.step)})
			}
			ckpts = append(ckpts, n.ckpts...)
			if !n.isLeaf() {
				draws = append(draws, draw{int(n.fork.step)})
			}
		}
		for i := 1; i < len(draws); i++ {
			if draws[i].step < draws[i-1].step {
				t.Fatalf("leaf %d: path draws not ordered by schedule step", leaf.id)
			}
		}
		for i := 1; i < len(ckpts); i++ {
			prev, cur := &ckpts[i-1], &ckpts[i]
			if cur.stepIdx <= prev.stepIdx || cur.tapeIdx < prev.tapeIdx {
				t.Fatalf("leaf %d: checkpoints out of order: %d -> %d", leaf.id, prev.stepIdx, cur.stepIdx)
			}
			if cur.state == nil || cur.state.N() != int(plan.reg[cur.stepIdx].width) || len(cur.bits) != prog.numClbits {
				t.Fatalf("leaf %d: checkpoint at step %d malformed", leaf.id, cur.stepIdx)
			}
			n := 0
			for _, d := range draws {
				if d.step < cur.stepIdx {
					n++
				}
			}
			if n != cur.tapeIdx {
				t.Fatalf("leaf %d checkpoint at step %d: tapeIdx %d, want %d",
					leaf.id, cur.stepIdx, cur.tapeIdx, n)
			}
		}
		// checkpointBefore from any node on the path returns the tightest
		// on-path checkpoint for every draw step of that node's segment.
		for _, n := range path {
			for _, e := range n.tape {
				ck := n.checkpointBefore(int(e.step))
				if ck.stepIdx > int(e.step) {
					t.Fatalf("checkpointBefore(%d) returned later step %d", e.step, ck.stepIdx)
				}
				for i := range ckpts {
					c := &ckpts[i]
					if c.stepIdx > ck.stepIdx && c.stepIdx <= int(e.step) {
						// Only on-path checkpoints up to n count.
						onPath := false
						for _, pn := range path {
							if pn == n {
								break
							}
							for j := range pn.ckpts {
								if &pn.ckpts[j] == c {
									onPath = true
								}
							}
						}
						for j := range n.ckpts {
							if &n.ckpts[j] == c {
								onPath = true
							}
						}
						if onPath {
							t.Fatalf("checkpointBefore(%d) not tightest (%d vs %d)", e.step, ck.stepIdx, c.stepIdx)
						}
					}
				}
			}
		}
	}
}

// TestTrialAllocsSteadyState pins the backend's steady-state allocation
// contract from PR 1: about one allocation per trial (the derived trial
// stream) on the legacy path. The default engine is bounded end to end
// through Machine.Run at GOMAXPROCS=1 (AllocsPerRun pins it there):
// each trial derives its stream, divergent trials derive a second one
// to skip to their checkpoint, and the walk, bucketing and replay units
// add a few per trial on this 200-trial run, measured once the plan has
// stopped growing. Regressions here mean a scratch buffer leaked back
// into the hot loop.
func TestTrialAllocsSteadyState(t *testing.T) {
	m := noisyMachine(7)
	exe := benchCircuit(10)
	prog, err := m.getProgram(exe)
	if err != nil {
		t.Fatal(err)
	}
	scratch := statevec.NewState(prog.nLocal)
	trueBits := make([]int, prog.numClbits)
	root := rng.New(11)
	const trials = 200

	legacyBody := func() {
		for trial := 0; trial < trials; trial++ {
			m.runTrajectory(prog, scratch, trueBits, root.DeriveN("trial", trial))
		}
	}
	runBody := func() {
		if _, err := m.Run(exe, trials, root); err != nil {
			t.Fatal(err)
		}
	}
	legacyBody() // warm up scratch pools and lazily built state
	// Let the plan grow until it settles: every Run draws the same
	// trials, so once forkAfterRuns+1 Runs in a row grow nothing, none
	// will.
	for quiet := 0; quiet <= forkAfterRuns; {
		before := m.PlanStats().ForksGrown
		runBody()
		if m.PlanStats().ForksGrown == before {
			quiet++
		} else {
			quiet = 0
		}
	}

	if per := testing.AllocsPerRun(10, legacyBody) / trials; per > 1.1 {
		t.Errorf("legacy path: %.2f allocs/trial, want ~1", per)
	}
	if per := testing.AllocsPerRun(10, runBody) / trials; per > 6.5 {
		t.Errorf("default engine: %.2f allocs/trial, want <= 6.5", per)
	}
}
