package mapper

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"edm/internal/bitset"
	"edm/internal/circuit"
	"edm/internal/graph"
	"edm/internal/pool"
)

// This file is the ensemble-construction half of the compiler: the
// streaming candidate pipeline behind TopK and Placements.
//
// Earlier versions materialized a full Executable — a cloned circuit plus
// a device.ESP pass — for every isomorphic placement the VF2 enumeration
// produced (hundreds of thousands for the Table 1 workloads). The
// pipeline now keeps a lightweight candidate record per placement: the
// ESP is recomputed incrementally from per-gate tables as the search
// emits each mapping, qubit sets are bitmasks, layout identity is a
// 64-bit hash, and circuits are only cloned for the <= k placements that
// survive ranking, dedupe and diversity selection. Enumeration and
// scoring shard across the compute-token pool on the first VF2 match
// level and merge in first-candidate order, so results are bit-identical
// to a serial run.

// enumLimit caps the number of isomorphic placements enumerated; the
// 14-qubit devices of interest stay well under it.
const enumLimit = 100000

// ---------------------------------------------------------------------------
// Qubit-set bitmasks and hashed keys.

// qmask is a set of physical qubits as an inline fixed-width multi-word
// bitset. It replaced the map[int]bool sets and byte-string keys the
// selection stage used originally, and the single-uint64 footprint that
// capped devices at 64 qubits after that. Devices wider than bitset.Cap
// are rejected with device.ErrDeviceTooWide at the compiler's public
// entry points (widthErr) rather than silently truncating footprints.
type qmask = bitset.Set

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit word into the hash, FNV-1a style but a word at
// a time: each step xors the input and multiplies by the (odd, hence
// bijective) FNV prime, so any single-word difference always changes the
// hash and multi-word collisions are no more likely than random.
func fnvMix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	h ^= h >> 32
	return h
}

// hashInts fingerprints an int slice (layouts). Collisions between
// distinct layouts are possible in principle but need ~2^32 candidates to
// become likely; pools top out around enumLimit.
func hashInts(xs []int) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(len(xs)))
	for _, x := range xs {
		h = fnvMix(h, uint64(int64(x)))
	}
	return h
}

// maskHash fingerprints a qubit set with the same word mixing as the
// mapper's other integer keys.
func maskHash(m qmask) uint64 {
	h := uint64(fnvOffset)
	for _, w := range m {
		h = fnvMix(h, w)
	}
	return h
}

// ---------------------------------------------------------------------------
// Incremental ESP scoring.

const (
	opSQ = iota
	opMeas
	opCX
	opSWAP
)

// espOp is one ESP-relevant gate of the base executable with its qubits
// compacted to used-qubit indices, so a candidate's ESP is a function of
// the VF2 mapping alone.
type espOp struct {
	kind int8
	a, b int32
}

// atomicFloat is a monotone non-negative maximum shared by the pruned
// search workers.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

// raise lifts the value to at least v. Non-negative float64s compare like
// their bit patterns, so a plain integer CAS-max suffices.
func (a *atomicFloat) raise(v float64) {
	nb := math.Float64bits(v)
	for {
		ob := a.bits.Load()
		if math.Float64frombits(ob) >= v {
			return
		}
		if a.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// candidate is a placement in the TopK pool before materialization.
type candidate struct {
	esp    float64
	layout []int // logical -> physical, the initial layout
	lkey   uint64
	set    qmask
	skey   uint64
	mono   []int         // used[i] -> physical; nil for alternative placements
	alt    *altPlacement // dry-routed alternative placement, replayed on demand
}

// replacer drives isomorphic re-placements of one base executable: the
// VF2 search over its usage graph plus everything needed to score and
// label a mapping without touching the circuit.
type replacer struct {
	c    *Compiler
	base *Executable
	used []int
	ops  []espOp

	search *graph.MonoSearch
	// Branch-and-bound tables over the match order: opsAt[d] lists the
	// gates whose qubits are all assigned once depth d is, espSuffix[d] is
	// the best-case success factor of everything at depths >= d.
	opsAt     [][]espOp
	espSuffix []float64

	// layoutIdx[i] is the used-index of base.InitialLayout[i]; allUsed
	// says every layout qubit is a used qubit, enabling the alloc-light
	// layout construction (the identityExtend fallback covers programs
	// whose initial layout includes never-touched qubits).
	layoutIdx []int
	allUsed   bool
}

func (c *Compiler) newReplacer(base *Executable) *replacer {
	ug, used := usageGraph(base)
	rp := &replacer{c: c, base: base, used: used}
	idx := make(map[int]int, len(used))
	for i, q := range used {
		idx[q] = i
	}
	for _, op := range base.Circuit.Ops {
		switch {
		case op.Kind == circuit.Barrier || op.Kind == circuit.I:
		case op.Kind == circuit.Measure:
			rp.ops = append(rp.ops, espOp{opMeas, int32(idx[op.Qubits[0]]), 0})
		case op.Kind.IsTwoQubit():
			kind := int8(opCX)
			if op.Kind == circuit.SWAP {
				kind = opSWAP
			}
			rp.ops = append(rp.ops, espOp{kind, int32(idx[op.Qubits[0]]), int32(idx[op.Qubits[1]])})
		default:
			rp.ops = append(rp.ops, espOp{opSQ, int32(idx[op.Qubits[0]]), 0})
		}
	}
	rp.search = graph.NewMonoSearch(ug, c.g)
	order := rp.search.Order()
	pos := make([]int, len(order))
	for d, v := range order {
		pos[v] = d
	}
	rp.opsAt = make([][]espOp, len(order))
	for _, op := range rp.ops {
		d := pos[op.a]
		if op.kind == opCX || op.kind == opSWAP {
			if pb := pos[op.b]; pb > d {
				d = pb
			}
		}
		rp.opsAt[d] = append(rp.opsAt[d], op)
	}
	rp.espSuffix = make([]float64, len(order)+1)
	rp.espSuffix[len(order)] = 1
	for d := len(order) - 1; d >= 0; d-- {
		f := 1.0
		for _, op := range rp.opsAt[d] {
			switch op.kind {
			case opSQ:
				f *= c.maxSQSucc
			case opMeas:
				f *= c.maxMeasSucc
			case opCX:
				f *= c.maxCXSucc
			default:
				f *= c.maxCXSucc * c.maxCXSucc * c.maxCXSucc
			}
		}
		rp.espSuffix[d] = rp.espSuffix[d+1] * f
	}

	rp.layoutIdx = make([]int, len(base.InitialLayout))
	rp.allUsed = true
	for i, p := range base.InitialLayout {
		if j, ok := idx[p]; ok {
			rp.layoutIdx[i] = j
		} else {
			rp.layoutIdx[i] = -1
			rp.allUsed = false
		}
	}
	return rp
}

// score computes the ESP of the base executable relabeled by mono. The
// per-op factors and their multiplication order replicate device.ESP on
// the remapped circuit exactly, so the result is bit-identical to
// materializing the circuit and rescoring it.
func (rp *replacer) score(mono []int) float64 {
	c := rp.c
	esp := 1.0
	for _, op := range rp.ops {
		switch op.kind {
		case opSQ:
			esp *= c.sqSucc[mono[op.a]]
		case opMeas:
			esp *= c.measSucc[mono[op.a]]
		case opCX:
			esp *= c.cxSucc[mono[op.a]][mono[op.b]]
		default:
			s := c.cxSucc[mono[op.a]][mono[op.b]]
			esp *= s * s * s
		}
	}
	return esp
}

// layoutOf builds the candidate's initial layout (logical -> physical).
func (rp *replacer) layoutOf(mono []int) []int {
	out := make([]int, len(rp.base.InitialLayout))
	if rp.allUsed {
		for i, j := range rp.layoutIdx {
			out[i] = mono[j]
		}
		return out
	}
	vm := identityExtend(rp.used, mono, rp.c.devN)
	for i, p := range rp.base.InitialLayout {
		if p >= 0 {
			out[i] = vm[p]
		} else {
			out[i] = -1
		}
	}
	return out
}

func (rp *replacer) makeCandidate(mono []int) *candidate {
	m := append([]int(nil), mono...)
	var set qmask
	for _, q := range m {
		set.Add(q)
	}
	layout := rp.layoutOf(m)
	return &candidate{
		esp:    rp.score(m),
		layout: layout,
		lkey:   hashInts(layout),
		set:    set,
		skey:   maskHash(set),
		mono:   m,
	}
}

// runShard enumerates the subtree rooted at the given first-level VF2
// candidate. A non-nil thr enables ESP branch-and-bound: subtrees whose
// best-case completion falls below the shared threshold (minus the bbEps
// rounding margin) are discarded. The threshold only ever rises and
// pruning is strict, so every candidate that could win the deterministic
// (ESP desc, layout asc, emission order) ranking survives in every run,
// even though the exact survivor set depends on worker timing.
func (rp *replacer) runShard(first int, thr *atomicFloat) []*candidate {
	var out []*candidate
	h := graph.Hooks{Emit: func(m []int) bool {
		cd := rp.makeCandidate(m)
		if thr != nil {
			thr.raise(cd.esp)
		}
		out = append(out, cd)
		return len(out) >= enumLimit
	}}
	if thr != nil {
		stack := make([]float64, len(rp.search.Order())+1)
		stack[0] = 1
		mono := make([]int, len(rp.used))
		for i := range mono {
			mono[i] = -1
		}
		h.Assign = func(d, pv, tv int) bool {
			mono[pv] = tv
			p := stack[d]
			for _, op := range rp.opsAt[d] {
				switch op.kind {
				case opSQ:
					p *= rp.c.sqSucc[mono[op.a]]
				case opMeas:
					p *= rp.c.measSucc[mono[op.a]]
				case opCX:
					p *= rp.c.cxSucc[mono[op.a]][mono[op.b]]
				default:
					s := rp.c.cxSucc[mono[op.a]][mono[op.b]]
					p *= s * s * s
				}
			}
			stack[d+1] = p
			if p*rp.espSuffix[d+1] < thr.load()*(1-bbEps) {
				mono[pv] = -1
				return false
			}
			return true
		}
		h.Unassign = func(d, pv, tv int) { mono[pv] = -1 }
	}
	r := rp.search.NewRunner(h)
	r.RunFrom(first)
	return out
}

// enumerate runs the sharded search across the compute pool and merges
// shard outputs in ascending first-candidate order — the serial
// enumeration order — truncated to enumLimit.
func (rp *replacer) enumerate(thr *atomicFloat) []*candidate {
	n := rp.c.devN
	shards := make([][]*candidate, n)
	pool.Each(n, func(first int) {
		shards[first] = rp.runShard(first, thr)
	})
	var out []*candidate
	for _, s := range shards {
		out = append(out, s...)
		if len(out) >= enumLimit {
			out = out[:enumLimit]
			break
		}
	}
	return out
}

// materialize clones the base circuit under the candidate's relabeling
// (or replays the dry routing pass for alternative placements).
func (rp *replacer) materialize(cd *candidate) *Executable {
	if cd.alt != nil {
		return cd.alt.exe()
	}
	vm := identityExtend(rp.used, cd.mono, rp.c.devN)
	return &Executable{
		Circuit:       rp.base.Circuit.Remap(vm, rp.c.devN),
		InitialLayout: cd.layout,
		FinalLayout:   applyMap(rp.base.FinalLayout, vm),
		ESP:           cd.esp,
		Swaps:         rp.base.Swaps,
	}
}

func candFromAlt(devN int, a *altPlacement) *candidate {
	set := a.usedMask(devN)
	return &candidate{
		esp:    a.res.esp,
		layout: a.layout,
		lkey:   hashInts(a.layout),
		set:    set,
		skey:   maskHash(set),
		alt:    a,
	}
}

// sortCandidates stably orders by ESP descending, then initial layout
// ascending.
func sortCandidates(cs []*candidate) {
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].esp != cs[j].esp {
			return cs[i].esp > cs[j].esp
		}
		return lexLess(cs[i].layout, cs[j].layout)
	})
}

// splitBySet partitions a sorted candidate list into the best placement
// per physical qubit set (distinct) and the remaining same-set variants
// (dupes). Placements on *distinct physical qubit sets* come first in the
// pool: permutations of one qubit subset have identical ESP but make
// near-identical mistakes, which is exactly the correlation EDM exists to
// avoid.
func splitBySet(cs []*candidate) (distinct, dupes []*candidate) {
	seen := make(map[uint64]bool, len(cs))
	for _, cd := range cs {
		if seen[cd.skey] {
			dupes = append(dupes, cd)
			continue
		}
		seen[cd.skey] = true
		distinct = append(distinct, cd)
	}
	return distinct, dupes
}

// dedupeByLayout removes candidates whose initial layouts coincide,
// keeping the first (pool order is significance order).
func dedupeByLayout(cs []*candidate) []*candidate {
	seen := make(map[uint64]bool, len(cs))
	out := cs[:0:0]
	for _, cd := range cs {
		if seen[cd.lkey] {
			continue
		}
		seen[cd.lkey] = true
		out = append(out, cd)
	}
	return out
}

// TopK builds the ensemble of diverse mappings (paper Section 5.2).
//
// The candidate pool contains (a) every isomorphic transfer of the
// compiled baseline onto the coupling graph (VF2) and (b) independently
// re-compiled placements from every greedy seed — the paper's step 3
// re-compiles the program per initial mapping, which lets members differ
// not just in which physical qubits they use but in their routing
// geometry (and therefore in *which* systematic mistakes they make).
//
// Candidates are ranked by ESP and selected greedily under a diversity
// constraint: a candidate may share at most half of its qubits with every
// already-selected member (the paper reports its ensemble members shared
// only two or three qubits out of seven). The cap is relaxed one qubit at
// a time if the device cannot supply k members under it. Element 0 is
// always the single best mapping — the paper's baseline.
//
// The pipeline is deterministic: results are bit-identical across runs
// and worker counts. On a memo compiler (NewMemoCompiler) the ranked
// candidate pool is built once per circuit fingerprint and shared across
// every k (selection re-runs per k, so each k's members match an
// uncached call exactly), and the returned executables are shared
// immutable values — callers must not mutate them.
func (c *Compiler) TopK(logical *circuit.Circuit, k int) ([]*Executable, error) {
	return c.TopKCtx(context.Background(), logical, k)
}

// TopKCtx is TopK with request cancellation, the serving-path entry
// point. On a compiler with an ensemble cache the candidate-pool build
// runs through the cache's singleflight: with a cancellable ctx it runs
// detached — a cancelled client detaches with ctx.Err() while the pool
// completes and stays warm for the concurrent and future requests that
// keyed the same circuit fingerprint — so exactly one compile runs per
// fingerprint no matter how many clients race or abandon it. A ctx that
// can never be cancelled builds on the caller's goroutine. Results are
// bit-identical to TopK whenever ctx does not expire.
func (c *Compiler) TopKCtx(ctx context.Context, logical *circuit.Circuit, k int) ([]*Executable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.widthErr(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("mapper: k must be positive")
	}
	if k == 1 {
		if c.ens == nil {
			return c.buildSingleBest(logical)
		}
		be, err := c.ens.best.GetCtx(ctx, circuitKey(logical), func() *bestEntry {
			exes, err := c.buildSingleBest(logical)
			return &bestEntry{exes: exes, err: err}
		})
		if err != nil {
			return nil, err
		}
		return be.exes, be.err
	}
	if c.ens == nil {
		return c.buildPool(logical).topK(k)
	}
	pe, err := c.ens.pools.GetCtx(ctx, circuitKey(logical), func() *poolEntry {
		return c.buildPool(logical)
	})
	if err != nil {
		return nil, err
	}
	return pe.topK(k)
}

// buildPool runs the full candidate pipeline for one circuit: compile,
// VF2 enumeration, greedy alternative placements, dedupe and ranking.
// The result is everything TopK needs for any k >= 2. Errors are carried
// in the entry so a cached failure replays deterministically. The
// compile stage is inlined (validate, place, dry-route, replay) so the
// entry can retain the intermediates the drift-tracked upgrade needs.
func (c *Compiler) buildPool(logical *circuit.Circuit) *poolEntry {
	if err := c.widthErr(); err != nil {
		return &poolEntry{err: err}
	}
	if err := logical.Validate(); err != nil {
		return &poolEntry{err: err}
	}
	if logical.NumQubits > c.devN {
		return &poolEntry{err: fmt.Errorf("mapper: program needs %d qubits, device has %d", logical.NumQubits, c.devN)}
	}
	seed, err := c.place(logical)
	if err != nil {
		return &poolEntry{err: err}
	}
	prog := progOf(logical)
	baseLayout, baseRes, err := c.routeDry(prog, seed)
	if err != nil {
		return &poolEntry{err: err}
	}
	base := c.replay(prog, baseLayout, baseRes)
	rp := c.newReplacer(base)
	cands := rp.enumerate(nil)
	if len(cands) == 0 {
		return &poolEntry{err: fmt.Errorf("mapper: no isomorphic placement found (internal error: the base placement itself should match)")}
	}
	raw := append([]*candidate(nil), cands...)
	sortCandidates(cands)
	distinct, dupes := splitBySet(cands)
	cpool := append(distinct, dupes...)
	alts, _, err := c.alternativePlacements(prog)
	if err != nil {
		return &poolEntry{err: err}
	}
	for _, a := range alts {
		cpool = append(cpool, candFromAlt(c.devN, a))
	}
	cpool = dedupeByLayout(cpool)
	sortCandidates(cpool)
	return &poolEntry{
		rp: rp, cpool: cpool, raw: raw, prog: prog,
		seed: seed, baseLayout: baseLayout, baseRes: baseRes,
		exes: make(map[*candidate]*Executable),
	}
}

// buildSingleBest is TopK for k = 1, the per-round baseline policy and
// the hottest compile path in the experiment campaign. Selecting one
// member is a pure argmax, so the isomorphic enumeration runs under ESP
// branch-and-bound: the threshold is seeded with the best re-compiled
// placement and rises as better transfers are found, discarding most of
// the search tree. Pruning is strict (ties survive), yet the winner can
// beat the k >= 2 pool's head: when a layout is both an isomorphic
// transfer and a re-compiled placement, the pool keeps the transfer
// (dedupeByLayout keeps the first), while here a transfer below the
// threshold is pruned and the placement's better ESP wins. It stays a
// separate cache entry from the k >= 2 pool: the pruned enumeration
// yields a different (smaller) candidate set, and serving k = 1 from the
// pool's head would couple the baseline result to whether an EDM policy
// ran first.
func (c *Compiler) buildSingleBest(logical *circuit.Circuit) ([]*Executable, error) {
	base, err := c.Compile(logical)
	if err != nil {
		return nil, err
	}
	alts, _, err := c.alternativePlacements(progOf(logical))
	if err != nil {
		return nil, err
	}
	var thr atomicFloat
	for _, a := range alts {
		thr.raise(a.res.esp)
	}
	rp := c.newReplacer(base)
	cands := rp.enumerate(&thr)
	sortCandidates(cands)
	distinct, dupes := splitBySet(cands)
	cpool := append(distinct, dupes...)
	for _, a := range alts {
		cpool = append(cpool, candFromAlt(c.devN, a))
	}
	if len(cpool) == 0 {
		return nil, fmt.Errorf("mapper: no isomorphic placement found (internal error: the base placement itself should match)")
	}
	cpool = dedupeByLayout(cpool)
	sortCandidates(cpool)
	sel := selectDiverse(cpool, 1)
	out := make([]*Executable, len(sel))
	for i, cd := range sel {
		out[i] = rp.materialize(cd)
	}
	return out, nil
}

// Placements compiles the program and returns every distinct-subset
// placement (one executable per physical qubit set, the best of its set)
// in descending ESP order. max > 0 truncates the list. Fig8-style
// analyses use this to sample mappings across the full reliability range.
func (c *Compiler) Placements(logical *circuit.Circuit, max int) ([]*Executable, error) {
	base, err := c.Compile(logical)
	if err != nil {
		return nil, err
	}
	rp := c.newReplacer(base)
	cands := rp.enumerate(nil)
	if len(cands) == 0 {
		return nil, fmt.Errorf("mapper: no isomorphic placement found (internal error: the base placement itself should match)")
	}
	sortCandidates(cands)
	distinct, _ := splitBySet(cands)
	if max > 0 && max < len(distinct) {
		distinct = distinct[:max]
	}
	out := make([]*Executable, len(distinct))
	for i, cd := range distinct {
		out[i] = rp.materialize(cd)
	}
	return out, nil
}

// alternativePlacements re-compiles the program from every greedy seed,
// yielding placements with genuinely different routing geometry. Distinct
// seeds frequently settle on the same greedy layout, so layouts are
// deduplicated before routing and each unique layout is routed once,
// concurrently across the compute pool; the output lists unique layouts in
// first-seed order — exactly what survived the downstream layout dedupe
// when every seed was routed independently.
//
// Impossible seeds (a seed qubit whose component cannot host the
// interacting core) are skipped, and the skip count is returned so
// callers can see how much of the device contributed nothing. When every
// seed fails — a disconnected coupling graph none of whose components fit
// the program — an error is returned instead of quietly degrading the
// TopK pool to embedding-only candidates.
func (c *Compiler) alternativePlacements(prog *routeProg) ([]*altPlacement, int, error) {
	logical := prog.src
	edges := logical.InteractionGraph()
	iw := interactionWeights(logical.NumQubits, edges)
	deg := make([]int, logical.NumQubits)
	for _, e := range edges {
		deg[e.A] += e.Count
		deg[e.B] += e.Count
	}
	measures := make([]int, logical.NumQubits)
	for _, op := range logical.Ops {
		if op.Kind == circuit.Measure {
			measures[op.Qubits[0]]++
		}
	}
	order := placeOrder(logical.NumQubits, edges, deg)

	layouts := make([][]int, c.devN)
	pool.Each(c.devN, func(seed int) {
		if layout, cost := c.placeFrom(order, iw, measures, seed, logical.NumQubits); layout != nil && !math.IsInf(cost, 1) {
			layouts[seed] = layout
		}
	})
	uniqIdx := make([]int, c.devN) // seed -> index into uniq, -1 if unplaceable
	idxOf := make(map[uint64]int)
	var uniq [][]int
	for seed, layout := range layouts {
		uniqIdx[seed] = -1
		if layout == nil {
			continue
		}
		k := hashInts(layout)
		j, ok := idxOf[k]
		if !ok {
			j = len(uniq)
			idxOf[k] = j
			uniq = append(uniq, layout)
		}
		uniqIdx[seed] = j
	}
	routed := make([]*altPlacement, len(uniq))
	pool.Each(len(uniq), func(i int) {
		if bl, res, err := c.routeDry(prog, uniq[i]); err == nil {
			routed[i] = &altPlacement{c: c, prog: prog, layout: bl, res: res}
		}
	})
	var out []*altPlacement
	routedSeeds := 0
	emitted := make([]bool, len(uniq))
	for seed := 0; seed < c.devN; seed++ {
		j := uniqIdx[seed]
		if j < 0 || routed[j] == nil {
			continue
		}
		routedSeeds++
		if !emitted[j] {
			emitted[j] = true
			out = append(out, routed[j])
		}
	}
	skipped := c.devN - routedSeeds
	if len(out) == 0 {
		return nil, skipped, fmt.Errorf(
			"mapper: alternative placements: all %d greedy seeds failed to place the %d-qubit program (coupling graph has %d connected components)",
			c.devN, logical.NumQubits, len(c.g.Components()))
	}
	return out, skipped, nil
}

// selectDiverse picks k members from the ESP-sorted pool under two
// constraints drawn from the paper: every member must stay within an ESP
// slack of the best mapping ("all the mappings used were within 10% of
// the ESP of best mapping", Section 3.2), and a new member may share at
// most maxShared qubits with every already-picked member (the paper's
// members shared only two or three qubits). The overlap cap starts at
// half the footprint and relaxes first; if still short, the ESP slack
// widens — mirroring Section 5.5's observation that the number of strong
// diverse placements on a small machine is inherently limited. The
// pool's best candidate is always member 0.
func selectDiverse(cpool []*candidate, k int) []*candidate {
	if len(cpool) == 0 {
		return nil
	}
	footprint := cpool[0].set.Count()
	bestESP := cpool[0].esp
	for _, slack := range []float64{0.15, 0.3, 0.5, 1.0} {
		minESP := bestESP * (1 - slack)
		for maxShared := footprint / 2; maxShared <= footprint; maxShared++ {
			picked := []*candidate{cpool[0]}
			for _, cand := range cpool[1:] {
				if len(picked) == k {
					break
				}
				if cand.esp < minESP {
					continue
				}
				ok := true
				for _, p := range picked {
					if cand.set.Overlap(p.set) > maxShared {
						ok = false
						break
					}
				}
				if ok {
					picked = append(picked, cand)
				}
			}
			if len(picked) == k {
				return picked
			}
			if slack == 1.0 && maxShared == footprint {
				return picked // entire pool exhausted
			}
		}
	}
	return []*candidate{cpool[0]}
}

// usageGraph returns the compacted graph of couplings the executable's
// two-qubit gates actually use, plus the compact-index -> physical-qubit
// slice.
func usageGraph(exe *Executable) (*graph.Graph, []int) {
	used := exe.UsedQubits()
	idx := make(map[int]int, len(used))
	for i, q := range used {
		idx[q] = i
	}
	g := graph.New(len(used))
	for _, op := range exe.Circuit.Ops {
		if op.Kind.IsTwoQubit() {
			g.AddEdge(idx[op.Qubits[0]], idx[op.Qubits[1]])
		}
	}
	return g, used
}

// identityExtend builds a full device-sized vertex map sending used[i] to
// mono[i] and filling the remaining physical qubits injectively.
func identityExtend(used []int, mono []int, devN int) []int {
	out := make([]int, devN)
	taken := make([]bool, devN)
	for i := range out {
		out[i] = -1
	}
	for i, q := range used {
		out[q] = mono[i]
		taken[mono[i]] = true
	}
	free := 0
	for q := 0; q < devN; q++ {
		if out[q] != -1 {
			continue
		}
		for taken[free] {
			free++
		}
		out[q] = free
		taken[free] = true
	}
	return out
}

func applyMap(layout, vertexMap []int) []int {
	out := make([]int, len(layout))
	for i, p := range layout {
		if p >= 0 {
			out[i] = vertexMap[p]
		} else {
			out[i] = -1
		}
	}
	return out
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
