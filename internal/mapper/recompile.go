package mapper

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/memo"
	"edm/internal/pool"
)

// recompile.go is the drift-aware incremental recompilation path
// (DESIGN.md §11). A Tracking compiler follows a device across
// calibration cycles; on each cycle it diffs the new calibration against
// the old one (device.Diff) and upgrades every cached candidate pool
// through a fallback ladder instead of rebuilding it:
//
//	reused    — candidate footprint disjoint from the any-bit diff: even
//	            the ESP is bit-identical, zero work;
//	rescored  — footprint touched only within tolerance (or an exact
//	            structural check passed): routing and layout kept, ESP
//	            recomputed by the O(gates) incremental scorer;
//	rerouted  — footprint moved beyond tolerance or a re-route check
//	            found a different routing: placed/routed from scratch;
//	full      — global calibration change, tol = 0 with any change, or a
//	            base-structure check failure: the whole pool rebuilds.
//
// Routing is globally calibration-dependent — the SABRE pass's
// reliability weights read path costs through arbitrary qubits — so
// footprint locality alone cannot guarantee a candidate's routing is
// still what a fresh compile would produce. RecompileChecked therefore
// re-verifies every calibration-dependent decision with cheap dry-run
// re-route checks (no materialization), which makes the upgraded pool
// provably bit-identical to a full rebuild; RecompileFast trusts the
// tolerance and skips the checks for structurally-untouched candidates.

// RecompileMode selects how aggressively Tracking reuses cached pools.
type RecompileMode int

const (
	// RecompileChecked re-verifies every calibration-dependent routing
	// decision (placement seed, base routing, alternative-placement
	// sweep) with dry-run re-route checks, so the incremental pool is
	// bit-identical to a full rebuild. The default.
	RecompileChecked RecompileMode = iota
	// RecompileFast trusts the footprint intersection: candidates whose
	// qubits and links moved only within tolerance keep their routing
	// unverified, and the alternative-placement seed sweep is not re-run.
	// Faster, approximate — the drifting campaign's cross-check mode
	// reports the routed-ESP delta it costs.
	RecompileFast
)

// RecompileStats counts incremental-recompilation outcomes, per candidate
// (Reused/Rescored/Rerouted/Dropped partition every candidate processed)
// and per pool (Pools/FullRebuilds).
type RecompileStats struct {
	Pools        uint64 // pool upgrades attempted
	FullRebuilds uint64 // upgrades that fell back to a full rebuild
	Reused       uint64 // footprint untouched: ESP reused bit-identically
	Rescored     uint64 // structure kept, ESP recomputed incrementally
	Rerouted     uint64 // re-placed/re-routed from scratch
	CheckFailed  uint64 // re-route checks that found changed routing
	Dropped      uint64 // candidates discarded by full rebuilds
}

// Processed is the number of previous-pool candidates accounted for.
func (s RecompileStats) Processed() uint64 {
	return s.Reused + s.Rescored + s.Rerouted + s.Dropped
}

// Survival is the fraction of processed candidates that kept their
// structure (reused or re-scored); 1 when nothing was processed.
func (s RecompileStats) Survival() float64 {
	p := s.Processed()
	if p == 0 {
		return 1
	}
	return float64(s.Reused+s.Rescored) / float64(p)
}

// Sub returns the counter deltas since an earlier snapshot.
func (s RecompileStats) Sub(prev RecompileStats) RecompileStats {
	return RecompileStats{
		Pools:        s.Pools - prev.Pools,
		FullRebuilds: s.FullRebuilds - prev.FullRebuilds,
		Reused:       s.Reused - prev.Reused,
		Rescored:     s.Rescored - prev.Rescored,
		Rerouted:     s.Rerouted - prev.Rerouted,
		CheckFailed:  s.CheckFailed - prev.CheckFailed,
		Dropped:      s.Dropped - prev.Dropped,
	}
}

// recompileCtr is the atomic counterpart of RecompileStats.
type recompileCtr struct {
	pools, fullRebuilds, reused, rescored, rerouted, checkFailed, dropped atomic.Uint64
}

func (c *recompileCtr) add(s RecompileStats) {
	c.pools.Add(s.Pools)
	c.fullRebuilds.Add(s.FullRebuilds)
	c.reused.Add(s.Reused)
	c.rescored.Add(s.Rescored)
	c.rerouted.Add(s.Rerouted)
	c.checkFailed.Add(s.CheckFailed)
	c.dropped.Add(s.Dropped)
}

func (c *recompileCtr) snapshot() RecompileStats {
	return RecompileStats{
		Pools:        c.pools.Load(),
		FullRebuilds: c.fullRebuilds.Load(),
		Reused:       c.reused.Load(),
		Rescored:     c.rescored.Load(),
		Rerouted:     c.rerouted.Load(),
		CheckFailed:  c.checkFailed.Load(),
		Dropped:      c.dropped.Load(),
	}
}

// globalRecompileCtr aggregates across every Tracking instance for the
// cmd/edm -cachestats report.
var globalRecompileCtr recompileCtr

// RecompileStatsSnapshot returns the process-wide incremental
// recompilation counters, aggregated across every Tracking compiler.
func RecompileStatsSnapshot() RecompileStats { return globalRecompileCtr.snapshot() }

// trackHist bounds how many past calibrations a Tracking retains for
// diffing. A cached pool last touched more than trackHist generations
// ago has no retained calibration to diff against and rebuilds fully.
const trackHist = 32

type trackCal struct {
	gen uint64
	cal *device.Calibration
}

// Tracking is a compiler handle that follows a drifting device across
// calibration cycles. Between cycles, Advance diffs the new calibration
// against the retained history; TopK then serves every k from
// generation-tagged candidate pools that upgrade incrementally through
// recompilePool instead of rebuilding. Pools live in a Tracking-private
// cache (generation tagging is per-Tracking state), but the heavy
// compiler tables are shared through CachedCompiler as usual.
//
// Within a generation all methods are safe for concurrent use; Advance
// must not be called concurrently with TopK or CrossCheck (the drifting
// campaign serializes cycles, which is the natural shape of tracking a
// device through calibration windows).
//
// For k = 1, Tracking serves the head of the recompiled pool rather than
// running the branch-and-bound single-best path, so the initial
// generation pays the pool build even for k = 1 and amortizes it across
// the campaign's cycles and ks. The head is member 0 of every k (pinned
// by TestTopKPrefixStability's member-0 k-invariance) but not always
// Compiler.TopK(c, 1): see buildSingleBest.
type Tracking struct {
	mode  RecompileMode
	cur   *Compiler
	gen   uint64
	tol   float64
	hist  []trackCal
	pools *memo.Cache[*poolEntry]
	ctr   recompileCtr
}

// NewTracking starts tracking at an initial calibration. The first
// generation's pools are plain builds; reuse begins with the first
// Advance.
func NewTracking(cal *device.Calibration, mode RecompileMode) *Tracking {
	return &Tracking{
		mode:  mode,
		cur:   CachedCompiler(cal),
		hist:  []trackCal{{gen: 0, cal: cal}},
		pools: memo.New[*poolEntry](ensembleCacheCap),
	}
}

// Compiler returns the compiler for the current generation's calibration.
func (t *Tracking) Compiler() *Compiler { return t.cur }

// Stats snapshots this Tracking's recompilation counters.
func (t *Tracking) Stats() RecompileStats { return t.ctr.snapshot() }

// Advance moves the tracked device to a new calibration under the given
// relative tolerance and returns the diff against the previous
// generation. Cached pools are not touched eagerly; each upgrades lazily
// (against the diff from whichever generation it was last built at) on
// its next TopK.
func (t *Tracking) Advance(cal *device.Calibration, tol float64) device.CalDiff {
	d := device.Diff(t.cur.Calibration(), cal, tol)
	t.cur = CachedCompiler(cal)
	t.gen++
	t.tol = tol
	t.hist = append(t.hist, trackCal{gen: t.gen, cal: cal})
	if len(t.hist) > trackHist {
		t.hist = t.hist[len(t.hist)-trackHist:]
	}
	return d
}

// diffFor returns the diff from the calibration at generation prevGen to
// the current one. When prevGen has aged out of the retained history the
// diff is reported Global, forcing a full rebuild.
func (t *Tracking) diffFor(prevGen uint64) device.CalDiff {
	for _, h := range t.hist {
		if h.gen == prevGen {
			return device.Diff(h.cal, t.cur.Calibration(), t.tol)
		}
	}
	return device.CalDiff{Tol: t.tol, Global: true, Stats: device.DiffStats{Global: true}}
}

// TopK is TopKCtx with a context that is never cancelled.
func (t *Tracking) TopK(logical *circuit.Circuit, k int) ([]*Executable, error) {
	return t.TopKCtx(context.Background(), logical, k)
}

// TopKCtx is mapper.Compiler.TopK through the tracked, incrementally
// recompiled pools. Results are bit-identical to
// CachedCompiler(cal).TopK for the current calibration when the mode is
// RecompileChecked. With a cancellable ctx, pool builds and incremental
// upgrades run detached through the generation-tagged cache while
// cancelled callers detach, so each (circuit fingerprint, calibration
// generation) builds its pool once however many callers race or abandon
// it.
func (t *Tracking) TopKCtx(ctx context.Context, logical *circuit.Circuit, k int) ([]*Executable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("mapper: k must be positive")
	}
	pe, err := t.poolFor(ctx, logical)
	if err != nil {
		return nil, err
	}
	return pe.topK(k)
}

// PoolStats snapshots this Tracking's generation-tagged pool cache
// counters: one miss per (circuit fingerprint, generation) is the
// one-build invariant TopKCtx keeps.
func (t *Tracking) PoolStats() memo.Stats { return t.pools.Stats() }

// poolFor serves the circuit's pool at the current generation, building
// it fresh on first sight and upgrading it through recompilePool when a
// previous generation's pool is cached.
func (t *Tracking) poolFor(ctx context.Context, logical *circuit.Circuit) (*poolEntry, error) {
	c, gen := t.cur, t.gen
	return t.pools.GetGenCtx(ctx, circuitKey(logical), gen,
		func() *poolEntry {
			pe := c.buildPool(logical)
			pe.gen = gen
			return pe
		},
		func(prev *poolEntry) *poolEntry {
			pe := c.recompilePool(logical, prev, t.diffFor(prev.gen), t.mode, &t.ctr)
			pe.gen = gen
			return pe
		},
	)
}

// CrossCheck rebuilds the circuit's pool from scratch at the current
// calibration and compares it against the tracked (incrementally
// recompiled) pool. identical means the same candidates in the same
// order with bit-identical ESPs, layouts and routing — the exactness
// RecompileChecked guarantees. maxESPDelta is the largest |ESP
// difference| across candidates matched by initial layout (plus 1 for
// any unmatched candidate's ESP, so structural divergence always
// registers): the routed-ESP gap RecompileFast trades for speed.
func (t *Tracking) CrossCheck(logical *circuit.Circuit) (identical bool, maxESPDelta float64, err error) {
	pe, _ := t.poolFor(context.Background(), logical) // cannot fail uncancelled
	fresh := t.cur.buildPool(logical)
	if pe.err != nil || fresh.err != nil {
		same := pe.err != nil && fresh.err != nil && pe.err.Error() == fresh.err.Error()
		e := pe.err
		if e == nil {
			e = fresh.err
		}
		return same, 0, e
	}
	identical = len(pe.cpool) == len(fresh.cpool)
	if identical {
		for i := range pe.cpool {
			if !candEqual(pe.cpool[i], fresh.cpool[i]) {
				identical = false
				break
			}
		}
	}
	if identical {
		return true, 0, nil
	}
	freshESP := make(map[uint64]float64, len(fresh.cpool))
	for _, cd := range fresh.cpool {
		freshESP[cd.lkey] = cd.esp
	}
	for _, cd := range pe.cpool {
		if esp, ok := freshESP[cd.lkey]; ok {
			maxESPDelta = math.Max(maxESPDelta, math.Abs(cd.esp-esp))
			delete(freshESP, cd.lkey)
		} else {
			maxESPDelta = math.Max(maxESPDelta, 1+cd.esp)
		}
	}
	for _, esp := range freshESP {
		maxESPDelta = math.Max(maxESPDelta, 1+esp)
	}
	return false, maxESPDelta, nil
}

// candEqual reports bit-identity of two pool candidates: same ESP bits,
// same initial layout, and the same routing decisions.
func candEqual(a, b *candidate) bool {
	if math.Float64bits(a.esp) != math.Float64bits(b.esp) || !sameInts(a.layout, b.layout) {
		return false
	}
	if (a.alt == nil) != (b.alt == nil) {
		return false
	}
	if a.alt != nil {
		return sameInts(a.alt.res.final, b.alt.res.final) && sameRecs(a.alt.res.rec, b.alt.res.rec)
	}
	return sameInts(a.mono, b.mono)
}

func sameRecs(a, b []swapRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scoreReplay recomputes the ESP of a dry-routed program under the
// receiver's calibration by replaying the ops and SWAP log through a dry
// pass state — the same factors in the same order as replay and
// device.ESP, without building a circuit.
func (c *Compiler) scoreReplay(prog *routeProg, layout []int, rec []swapRec) float64 {
	st := c.newPassState(layout, nil)
	k := 0
	for i, op := range prog.ops {
		for k < len(rec) && rec[k].op == i {
			st.swap(i, rec[k].u, rec[k].v)
			k++
		}
		switch {
		case op.Kind == circuit.Barrier:
		case op.Kind == circuit.Measure:
			st.measure(op)
		case op.Kind.IsTwoQubit():
			st.gate2(op)
		default:
			// Validated by the dry pass that produced the log.
			_ = st.gate1(op, i)
		}
	}
	return st.esp
}

// poolGroups indexes the immutable structure of a pool lineage's raw
// candidate list: dense group ids for the skey (qubit-set) and lkey
// (layout) equivalence classes, keyed by raw position. Candidate sets and
// layouts never change across generations — only ESPs move — so the
// index is computed once, on the lineage's first incremental upgrade, and
// shared by every later generation, turning the assembly's hash-map
// passes into dense boolean passes.
type poolGroups struct {
	setGid   []int32          // raw index -> set-group id
	layGid   []int32          // raw index -> layout-group id
	layByKey map[uint64]int32 // mono lkey -> layout-group id
	nSet     int
	nLay     int
	// layUnique reports that every mono layout is distinct. Then the
	// (esp desc, layout asc) comparator is a strict total order over the
	// raw list, so its sort has a unique result regardless of algorithm
	// or starting permutation — the upgrade can start from the previous
	// generation's nearly-sorted order and use an adaptive unstable sort
	// instead of a stable sort from enumeration order.
	layUnique bool
}

func computeGroups(raw []*candidate) *poolGroups {
	g := &poolGroups{
		setGid:    make([]int32, len(raw)),
		layGid:    make([]int32, len(raw)),
		layByKey:  make(map[uint64]int32, len(raw)),
		layUnique: true,
	}
	setIds := make(map[uint64]int32, len(raw))
	for i, cd := range raw {
		id, ok := setIds[cd.skey]
		if !ok {
			id = int32(len(setIds))
			setIds[cd.skey] = id
		}
		g.setGid[i] = id
		lid, ok := g.layByKey[cd.lkey]
		if !ok {
			lid = int32(len(g.layByKey))
			g.layByKey[cd.lkey] = lid
		} else {
			g.layUnique = false
		}
		g.layGid[i] = lid
	}
	g.nSet, g.nLay = len(setIds), len(g.layByKey)
	return g
}

// candLess is sortCandidates' comparator: ESP descending, then initial
// layout ascending. Strict (a total order) whenever the layouts involved
// are pairwise distinct.
func candLess(a, b *candidate) bool {
	if a.esp != b.esp {
		return a.esp > b.esp
	}
	return lexLess(a.layout, b.layout)
}

// touchPred builds the footprint-intersection predicate for a diff
// granularity: a candidate is touched if its physical qubit set contains
// a changed qubit, or both endpoints of a changed edge (the only way an
// edge's rates enter its ESP or routing). The edge test is conservative
// — a set containing both endpoints might never run a gate across that
// edge — so it can over-rescore but never under-rescore.
func touchPred(edges []device.Edge, qm, em qmask) func(set qmask) bool {
	var hit []device.Edge
	for i, e := range edges {
		if em.Has(i) {
			hit = append(hit, e)
		}
	}
	return func(set qmask) bool {
		if set.Intersects(qm) {
			return true
		}
		for _, e := range hit {
			if set.Has(e.A) && set.Has(e.B) {
				return true
			}
		}
		return false
	}
}

// recompilePool upgrades a previous generation's pool entry to the
// receiver's calibration under the given diff, counting outcomes into
// ctr and the process-wide aggregate.
//
// Exactness (RecompileChecked): the final pool is a pure function of
// (the mono candidate multiset in enumeration order, the alternative
// placements in sweep order, every candidate's ESP). The mono multiset
// depends only on the base executable's structure — usage graph and op
// list — which the base re-route check pins (same placement seed, same
// winning layout, same SWAP log ⇒ same circuit); the alternative sweep
// is re-run outright (it *is* the alt re-route check); and every ESP is
// either recomputed by the incremental scorer or reused only when the
// candidate's footprint is untouched at any-bit granularity, where
// score() provably reads only unchanged table entries. Replaying
// buildPool's exact assembly pipeline (sort, split-by-set, append alts,
// dedupe-by-layout, sort) on those inputs therefore reproduces a full
// rebuild bit for bit. Any check failure falls back to the full path.
//
// Tolerance semantics: the beyond-tol masks gate only *structural* reuse
// (placement and routing). ESPs are never trusted across sub-tolerance
// moves — a touched candidate is always re-scored — so tolerance trades
// routing optimality, not scoring accuracy.
func (c *Compiler) recompilePool(logical *circuit.Circuit, prev *poolEntry, d device.CalDiff, mode RecompileMode, ctr *recompileCtr) *poolEntry {
	var tally RecompileStats
	tally.Pools = 1
	defer func() {
		ctr.add(tally)
		globalRecompileCtr.add(tally)
	}()

	full := func() *poolEntry {
		tally.FullRebuilds++
		tally.Dropped += uint64(len(prev.cpool))
		return c.buildPool(logical)
	}
	if prev.err != nil || prev.rp == nil || d.Full() {
		return full()
	}

	edges := c.cal.Topo.Edges()
	touchedAny := touchPred(edges, d.QubitsAny, d.EdgesAny)
	touchedTol := touchPred(edges, d.Qubits, d.Edges)
	prog := prev.prog

	// Base-structure check. The mono candidate multiset is a pure function
	// of the base executable, so the base must be re-verified (checked
	// mode) or at least beyond-tol-untouched (fast mode) before any mono
	// candidate can be reused.
	var baseRes passResult
	if mode == RecompileChecked {
		seed, err := c.place(logical)
		if err != nil {
			return full()
		}
		if !sameInts(seed, prev.seed) {
			tally.CheckFailed++
			return full()
		}
		bl, res, err := c.routeDry(prog, seed)
		if err != nil {
			return full()
		}
		if !sameInts(bl, prev.baseLayout) || !sameRecs(res.rec, prev.baseRes.rec) {
			tally.CheckFailed++
			return full()
		}
		baseRes = res
	} else {
		var baseMask qmask
		for _, q := range prev.rp.used {
			baseMask.Add(q)
		}
		if touchedTol(baseMask) {
			bl, res, err := c.routeDry(prog, prev.seed)
			if err != nil {
				return full()
			}
			if !sameInts(bl, prev.baseLayout) || !sameRecs(res.rec, prev.baseRes.rec) {
				tally.CheckFailed++
				return full()
			}
			baseRes = res
		} else {
			baseRes = passResult{
				final: prev.baseRes.final,
				rec:   prev.baseRes.rec,
				esp:   c.scoreReplay(prog, prev.baseLayout, prev.baseRes.rec),
			}
		}
	}

	// Rebind the replacer to this compiler without re-running its setup:
	// the base structure is unchanged, so the usage graph, espOps, match
	// order and layout index all carry over. The enumeration-only fields
	// (search, opsAt, espSuffix) are left nil — a recompiled pool is never
	// enumerated again; its raw list upgrades the next generation too.
	prevBase := prev.rp.base
	base2 := &Executable{
		Circuit:       prevBase.Circuit,
		InitialLayout: prevBase.InitialLayout,
		FinalLayout:   prevBase.FinalLayout,
		ESP:           baseRes.esp,
		Swaps:         prevBase.Swaps,
	}
	rp2 := &replacer{
		c: c, base: base2,
		used: prev.rp.used, ops: prev.rp.ops,
		layoutIdx: prev.rp.layoutIdx, allUsed: prev.rp.allUsed,
	}

	// Mono candidates: shallow-copy each raw candidate into one slab
	// (layout, set and mono are immutable and shared), re-scoring exactly
	// the touched ones.
	raw := prev.raw
	slab := make([]candidate, len(raw))
	newRaw := make([]*candidate, len(raw))
	touched := make([]bool, len(raw))
	for i, cd := range raw {
		touched[i] = touchedAny(cd.set)
		if touched[i] {
			tally.Rescored++
		} else {
			tally.Reused++
		}
	}
	pool.Each(len(raw), func(i int) {
		slab[i] = *raw[i]
		if touched[i] {
			slab[i].esp = rp2.score(slab[i].mono)
		}
		newRaw[i] = &slab[i]
	})

	// Alternative placements.
	oldAlt := make(map[uint64]*candidate)
	for _, cd := range prev.cpool {
		if cd.alt != nil {
			oldAlt[cd.lkey] = cd
		}
	}
	var altCands, altSurvived []*candidate
	if mode == RecompileChecked {
		// Re-run the seed sweep — this is the alt re-route check. Alts that
		// come back with the same layout and SWAP log survived (their
		// executables can transfer); the rest were genuinely re-routed.
		alts2, _, err := c.alternativePlacements(prog)
		if err != nil {
			tally.FullRebuilds++
			tally.Dropped += uint64(len(prev.cpool))
			return &poolEntry{err: err}
		}
		altCands = make([]*candidate, len(alts2))
		altSurvived = make([]*candidate, len(alts2))
		for i, a := range alts2 {
			nc := candFromAlt(c.devN, a)
			altCands[i] = nc
			old := oldAlt[nc.lkey]
			if old != nil && sameInts(old.layout, nc.layout) &&
				sameInts(old.alt.res.final, a.res.final) && sameRecs(old.alt.res.rec, a.res.rec) {
				altSurvived[i] = old
				if touchedAny(nc.set) {
					tally.Rescored++
				} else {
					tally.Reused++
				}
			} else {
				tally.Rerouted++
				if old != nil {
					tally.CheckFailed++
				}
			}
		}
	} else {
		// Fast mode: keep the previous sweep's alts, re-routing only the
		// ones whose footprint moved beyond tolerance (from their own old
		// layout — the seed sweep is not re-run, which is part of the
		// approximation the cross-check mode measures).
		for _, old := range prev.cpool {
			if old.alt == nil {
				continue
			}
			if !touchedTol(old.set) {
				esp := old.esp
				if touchedAny(old.set) {
					esp = c.scoreReplay(prog, old.alt.layout, old.alt.res.rec)
					tally.Rescored++
				} else {
					tally.Reused++
				}
				a2 := &altPlacement{c: c, prog: prog, layout: old.alt.layout,
					res: passResult{final: old.alt.res.final, rec: old.alt.res.rec, esp: esp}}
				nc := candFromAlt(c.devN, a2)
				altCands = append(altCands, nc)
				altSurvived = append(altSurvived, old)
				continue
			}
			bl, res, err := c.routeDry(prog, old.alt.layout)
			if err != nil {
				return full()
			}
			tally.Rerouted++
			altCands = append(altCands, candFromAlt(c.devN, &altPlacement{c: c, prog: prog, layout: bl, res: res}))
			altSurvived = append(altSurvived, nil)
		}
	}

	// Replay buildPool's exact assembly on the upgraded candidates,
	// replacing its hash maps with dense passes over the lineage's group
	// index. The sorted order is materialized as a permutation of raw
	// indices, so newRaw itself stays in enumeration order and becomes the
	// new entry's raw without another copy.
	g := prev.groups
	if g == nil {
		g = computeGroups(raw)
	}
	idx := make([]int32, len(newRaw))
	if g.layUnique {
		// Strict total order: start from the previous generation's sorted
		// permutation (small ESP moves leave it nearly sorted, which the
		// adaptive sort exploits) — the unique result matches buildPool's
		// stable sort from enumeration order.
		if prev.order != nil {
			copy(idx, prev.order)
		} else {
			for i := range idx {
				idx[i] = int32(i)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return candLess(newRaw[idx[a]], newRaw[idx[b]]) })
	} else {
		// Duplicate layouts exist: ties must resolve by enumeration order,
		// exactly as sortCandidates' stable sort does.
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.SliceStable(idx, func(a, b int) bool { return candLess(newRaw[idx[a]], newRaw[idx[b]]) })
	}
	order := idx

	// Surviving alts, deduped: an alt sharing a layout with any mono is
	// dropped (every mono lkey precedes it through distinct ++ dupes in
	// buildPool's pipeline), and among same-layout alts the first in sweep
	// order wins, exactly as dedupeByLayout resolves them.
	altSeen := make(map[uint64]bool, len(altCands))
	keptAlts := make([]*candidate, 0, len(altCands))
	for _, nc := range altCands {
		if _, dup := g.layByKey[nc.lkey]; dup || altSeen[nc.lkey] {
			continue
		}
		altSeen[nc.lkey] = true
		keptAlts = append(keptAlts, nc)
	}

	var cpool []*candidate
	if g.layUnique {
		// Every mono layout is distinct, so dedupeByLayout keeps every mono
		// and the final pool is just the sorted monos merged with the sorted
		// surviving alts — the split-by-set reshuffle is undone by the final
		// sort, whose strict comparator makes the merge its unique result.
		sort.Slice(keptAlts, func(a, b int) bool { return candLess(keptAlts[a], keptAlts[b]) })
		cpool = make([]*candidate, 0, len(idx)+len(keptAlts))
		ai := 0
		for _, ri := range idx {
			for ai < len(keptAlts) && candLess(keptAlts[ai], newRaw[ri]) {
				cpool = append(cpool, keptAlts[ai])
				ai++
			}
			cpool = append(cpool, newRaw[ri])
		}
		cpool = append(cpool, keptAlts[ai:]...)
	} else {
		// Duplicate mono layouts: replay the full pipeline. splitBySet —
		// first candidate per distinct qubit set keeps pool priority,
		// same-set permutations follow — then dedupeByLayout over
		// distinct ++ dupes ++ alts, then the final sort (strict after
		// dedupe, so an unstable sort reproduces buildPool's stable result).
		seenSet := make([]bool, g.nSet)
		distinct := make([]int32, 0, len(idx))
		var dupes []int32
		for _, ri := range idx {
			if seenSet[g.setGid[ri]] {
				dupes = append(dupes, ri)
				continue
			}
			seenSet[g.setGid[ri]] = true
			distinct = append(distinct, ri)
		}
		seenLay := make([]bool, g.nLay)
		cpool = make([]*candidate, 0, len(idx)+len(keptAlts))
		for _, part := range [][]int32{distinct, dupes} {
			for _, ri := range part {
				if seenLay[g.layGid[ri]] {
					continue
				}
				seenLay[g.layGid[ri]] = true
				cpool = append(cpool, newRaw[ri])
			}
		}
		cpool = append(cpool, keptAlts...)
		sort.Slice(cpool, func(i, j int) bool { return candLess(cpool[i], cpool[j]) })
	}

	// Transfer materialized executables: a surviving candidate's circuit is
	// calibration-independent (same structure), so a shallow copy with the
	// new ESP serves the new pool without re-materializing.
	exes := make(map[*candidate]*Executable)
	prev.mu.Lock()
	for i, cd := range raw {
		if exe, ok := prev.exes[cd]; ok {
			e2 := *exe
			e2.ESP = newRaw[i].esp
			exes[newRaw[i]] = &e2
		}
	}
	for i, nc := range altCands {
		if old := altSurvived[i]; old != nil {
			if exe, ok := prev.exes[old]; ok {
				e2 := *exe
				e2.ESP = nc.esp
				exes[nc] = &e2
			}
		}
	}
	prev.mu.Unlock()

	return &poolEntry{
		rp: rp2, cpool: cpool, raw: newRaw, prog: prog,
		seed: prev.seed, baseLayout: prev.baseLayout, baseRes: baseRes,
		groups: g, order: order, exes: exes,
	}
}
