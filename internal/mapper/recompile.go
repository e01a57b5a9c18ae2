package mapper

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/memo"
	"edm/internal/pool"
)

// recompile.go is the drift-tracked recompilation path (DESIGN.md §11).
// A Tracking compiler follows one device across calibration cycles and
// upgrades each cached candidate pool to the new calibration instead of
// rebuilding it. An upgrade re-places and re-dry-routes the base,
// re-runs the alternative-placement sweep and re-scores every enumerated
// candidate with the O(gates) incremental scorer; what it keeps is the
// VF2 enumeration and the sorted order, the costly part of a build. A
// lineage whose mono layouts are not pairwise distinct, or any check
// that finds a changed decision, falls back to a full rebuild, so an
// upgraded pool is bit-identical to buildPool at the new calibration.
//
// Routing is globally calibration-dependent — the SABRE pass's
// reliability weights read path costs through arbitrary qubits — so no
// cached routing decision is kept without its dry-run re-route check.

// RecompileStats counts pool-upgrade outcomes, per candidate
// (Rescored/Rerouted/Dropped partition every candidate processed) and
// per pool (Pools/FullRebuilds).
type RecompileStats struct {
	Pools        uint64 // pool upgrades attempted
	FullRebuilds uint64 // upgrades that fell back to a full rebuild
	Rescored     uint64 // structure kept, ESP recomputed incrementally
	Rerouted     uint64 // alternative placements the re-run sweep routed anew
	CheckFailed  uint64 // re-route checks that found changed routing
	Dropped      uint64 // candidates discarded by full rebuilds
}

// Processed is the number of previous-pool candidates accounted for.
func (s RecompileStats) Processed() uint64 {
	return s.Rescored + s.Rerouted + s.Dropped
}

// Survival is the fraction of processed candidates that kept their
// structure (re-scored only); 1 when nothing was processed.
func (s RecompileStats) Survival() float64 {
	p := s.Processed()
	if p == 0 {
		return 1
	}
	return float64(s.Rescored) / float64(p)
}

// Sub returns the counter deltas since an earlier snapshot.
func (s RecompileStats) Sub(prev RecompileStats) RecompileStats {
	return RecompileStats{
		Pools:        s.Pools - prev.Pools,
		FullRebuilds: s.FullRebuilds - prev.FullRebuilds,
		Rescored:     s.Rescored - prev.Rescored,
		Rerouted:     s.Rerouted - prev.Rerouted,
		CheckFailed:  s.CheckFailed - prev.CheckFailed,
		Dropped:      s.Dropped - prev.Dropped,
	}
}

// recompileCtr is the atomic counterpart of RecompileStats.
type recompileCtr struct {
	pools, fullRebuilds, rescored, rerouted, checkFailed, dropped atomic.Uint64
}

func (c *recompileCtr) add(s RecompileStats) {
	c.pools.Add(s.Pools)
	c.fullRebuilds.Add(s.FullRebuilds)
	c.rescored.Add(s.Rescored)
	c.rerouted.Add(s.Rerouted)
	c.checkFailed.Add(s.CheckFailed)
	c.dropped.Add(s.Dropped)
}

func (c *recompileCtr) snapshot() RecompileStats {
	return RecompileStats{
		Pools:        c.pools.Load(),
		FullRebuilds: c.fullRebuilds.Load(),
		Rescored:     c.rescored.Load(),
		Rerouted:     c.rerouted.Load(),
		CheckFailed:  c.checkFailed.Load(),
		Dropped:      c.dropped.Load(),
	}
}

// Tracking is a compiler handle that follows a drifting device across
// calibration cycles. Advance moves it to the next calibration; TopK
// then serves every k from generation-tagged candidate pools that
// upgrade through recompilePool instead of rebuilding. The pools live
// in the Tracking's own memo (generation tagging is per-Tracking
// state), so each generation's compiler is a plain NewCompiler without
// an ensemble memo.
//
// Within a generation all methods are safe for concurrent use; Advance
// must not be called concurrently with TopK (the drifting campaign
// serializes cycles, which is the natural shape of tracking a device
// through calibration windows).
//
// For k = 1, Tracking serves the head of the recompiled pool rather than
// running the branch-and-bound single-best path, so the initial
// generation pays the pool build even for k = 1 and amortizes it across
// the campaign's cycles and ks. The head is member 0 of every k (pinned
// by TestTopKPrefixStability's member-0 k-invariance) but not always
// Compiler.TopK(c, 1): see buildSingleBest.
type Tracking struct {
	cur   *Compiler
	gen   uint64
	pools *memo.Cache[*poolEntry]
	ctr   recompileCtr
}

// NewTracking starts tracking at an initial calibration. The first
// generation's pools are plain builds; upgrades begin with the first
// Advance.
func NewTracking(cal *device.Calibration) *Tracking {
	return &Tracking{
		cur:   NewCompiler(cal),
		pools: memo.New[*poolEntry](ensembleCacheCap),
	}
}

// Compiler returns the compiler for the current generation's calibration.
func (t *Tracking) Compiler() *Compiler { return t.cur }

// Stats snapshots this Tracking's recompilation counters.
func (t *Tracking) Stats() RecompileStats { return t.ctr.snapshot() }

// Advance moves the tracked device to a new calibration. Cached pools
// are not touched eagerly; each upgrades lazily, from whichever
// generation it was last served at, on its next TopK.
func (t *Tracking) Advance(cal *device.Calibration) {
	t.cur = NewCompiler(cal)
	t.gen++
}

// TopK is TopKCtx with a context that is never cancelled.
func (t *Tracking) TopK(logical *circuit.Circuit, k int) ([]*Executable, error) {
	return t.TopKCtx(context.Background(), logical, k)
}

// TopKCtx is mapper.Compiler.TopK through the tracked, upgraded pools.
// Results are bit-identical to a fresh compiler's TopK at the current
// calibration (k = 1 aside; see the type comment). With a cancellable
// ctx, pool builds and upgrades run detached through the
// generation-tagged cache while cancelled callers detach, so each
// (circuit fingerprint, calibration generation) builds its pool once
// however many callers race or abandon it.
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
	c := t.cur
	return t.pools.GetGenCtx(ctx, circuitKey(logical), t.gen,
		func() *poolEntry { return c.buildPool(logical) },
		func(prev *poolEntry) *poolEntry { return c.recompilePool(logical, prev, &t.ctr) },
	)
}

// sameRecs reports whether two SWAP logs are identical.
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

// monoLayouts returns the set of the candidates' layout keys, or nil if
// two of them share one.
func monoLayouts(raw []*candidate) map[uint64]bool {
	set := make(map[uint64]bool, len(raw))
	for _, cd := range raw {
		if set[cd.lkey] {
			return nil
		}
		set[cd.lkey] = true
	}
	return set
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

// recompilePool upgrades a previous generation's pool entry to the
// receiver's calibration, counting outcomes into ctr.
//
// Exactness: the final pool is a pure function of (the mono candidate
// multiset in enumeration order, the alternative placements in sweep
// order, every candidate's ESP). The mono multiset depends only on the
// device topology and the base executable's structure — usage graph and
// op list — which the base re-route check pins (same placement seed,
// same winning layout, same SWAP log ⇒ same circuit); the alternative
// sweep is re-run outright (it *is* the alt re-route check); and every
// ESP is recomputed by the incremental scorer. Only lineages whose mono
// layouts are pairwise distinct upgrade. buildPool's assembly (sort,
// split-by-set, append alts, dedupe-by-layout, sort) then keeps every
// mono, and its final sort runs over distinct layouts, where candLess
// is strict, so the pool is the sorted monos merged with the sorted
// surviving alts, bit for bit. Duplicate mono layouts, a topology change
// or any check failure fall back to the full path.
func (c *Compiler) recompilePool(logical *circuit.Circuit, prev *poolEntry, ctr *recompileCtr) *poolEntry {
	tally := RecompileStats{Pools: 1}
	defer func() { ctr.add(tally) }()

	full := func() *poolEntry {
		tally.FullRebuilds++
		tally.Dropped += uint64(len(prev.cpool))
		return c.buildPool(logical)
	}
	if prev.err != nil || prev.rp == nil ||
		prev.rp.c.cal.Topo.Fingerprint() != c.cal.Topo.Fingerprint() {
		return full()
	}
	// Layouts never change across generations, only ESPs, so the
	// lineage's first upgrade computes its layout set and later ones
	// inherit it.
	lays := prev.monoLays
	if lays == nil {
		if lays = monoLayouts(prev.raw); lays == nil {
			return full()
		}
	}
	prog := prev.prog

	// Base-structure check: the mono candidate multiset is a pure
	// function of the base executable, so the placement seed and the
	// base routing must both come back unchanged.
	seed, err := c.place(logical)
	if err != nil {
		return full()
	}
	if !sameInts(seed, prev.seed) {
		tally.CheckFailed++
		return full()
	}
	bl, baseRes, err := c.routeDry(prog, seed)
	if err != nil {
		return full()
	}
	if !sameInts(bl, prev.baseLayout) || !sameRecs(baseRes.rec, prev.baseRes.rec) {
		tally.CheckFailed++
		return full()
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
	// (layout, set and mono are immutable and shared) and re-score it.
	raw := prev.raw
	slab := make([]candidate, len(raw))
	newRaw := make([]*candidate, len(raw))
	pool.Each(len(raw), func(i int) {
		slab[i] = *raw[i]
		slab[i].esp = rp2.score(slab[i].mono)
		newRaw[i] = &slab[i]
	})
	tally.Rescored += uint64(len(raw))

	// Alternative placements: re-run the seed sweep — this is the alt
	// re-route check. Alts that come back with their previous layout and
	// SWAP log kept their structure; the rest were routed anew. A sweep
	// that fails fails the same way in the rebuild, which records it.
	alts, _, err := c.alternativePlacements(prog)
	if err != nil {
		return full()
	}
	oldAlt := make(map[uint64]*candidate)
	for _, cd := range prev.cpool {
		if cd.alt != nil {
			oldAlt[cd.lkey] = cd
		}
	}
	altCands := make([]*candidate, len(alts))
	for i, a := range alts {
		nc := candFromAlt(c.devN, a)
		altCands[i] = nc
		old := oldAlt[nc.lkey]
		if old != nil && sameInts(old.layout, nc.layout) &&
			sameInts(old.alt.res.final, a.res.final) && sameRecs(old.alt.res.rec, a.res.rec) {
			tally.Rescored++
		} else {
			tally.Rerouted++
			if old != nil {
				tally.CheckFailed++
			}
		}
	}

	// Sort the monos as a permutation of raw indices, so newRaw itself
	// stays in enumeration order and becomes the new entry's raw without
	// another copy. The order is strict, so the sort's result is unique
	// whatever its starting permutation: start from the previous
	// generation's, which small ESP moves leave nearly sorted.
	order := make([]int32, len(newRaw))
	if prev.order != nil {
		copy(order, prev.order)
	} else {
		for i := range order {
			order[i] = int32(i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return candLess(newRaw[order[a]], newRaw[order[b]]) })

	// Surviving alts, deduped as dedupeByLayout resolves them: an alt
	// sharing a layout with any mono is dropped (every mono precedes it
	// in buildPool's pipeline), and among same-layout alts the first in
	// sweep order wins.
	altSeen := make(map[uint64]bool, len(altCands))
	keptAlts := make([]*candidate, 0, len(altCands))
	for _, nc := range altCands {
		if lays[nc.lkey] || altSeen[nc.lkey] {
			continue
		}
		altSeen[nc.lkey] = true
		keptAlts = append(keptAlts, nc)
	}

	// Merge: buildPool's split-by-set reshuffle is undone by its final
	// sort, whose strict comparator makes the merge its unique result.
	sort.Slice(keptAlts, func(a, b int) bool { return candLess(keptAlts[a], keptAlts[b]) })
	cpool := make([]*candidate, 0, len(order)+len(keptAlts))
	ai := 0
	for _, ri := range order {
		for ai < len(keptAlts) && candLess(keptAlts[ai], newRaw[ri]) {
			cpool = append(cpool, keptAlts[ai])
			ai++
		}
		cpool = append(cpool, newRaw[ri])
	}
	cpool = append(cpool, keptAlts[ai:]...)

	return &poolEntry{
		rp: rp2, cpool: cpool, raw: newRaw, prog: prog,
		seed: prev.seed, baseLayout: prev.baseLayout, baseRes: baseRes,
		monoLays: lays, order: order, exes: make(map[*candidate]*Executable),
	}
}
