package mapper

import (
	"sync"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/memo"
)

// A memo compiler (NewMemoCompiler) attaches a per-compiler ensemble
// cache, so the TopK candidate pool for each circuit is built once and
// shared by every k its owner asks for. The owner holds the compiler as
// long as its calibration is current: each cached campaign round owns
// one, and so does each edmd window.

// ensembleCacheCap bounds each compiler's per-circuit pool and
// single-best caches. The campaign's workload suite has 9 circuits.
const ensembleCacheCap = 16

// TopKCounters aggregates across the ensemble caches of every campaign
// round's compiler (experiment passes it to NewMemoCompiler), so the
// campaign reports one Top-K line no matter how many calibrations it
// touched.
var TopKCounters memo.Counters

// ensembleCache memoizes TopK work per circuit fingerprint: pools holds
// the ranked candidate pool shared by every k >= 2 (selection is re-run
// per k; see DESIGN.md §9 on why ranked prefixes cannot be served
// directly), best holds the k = 1 branch-and-bound result, which runs a
// pruned enumeration the pool path does not.
type ensembleCache struct {
	pools *memo.Cache[*poolEntry]
	best  *memo.Cache[*bestEntry]
}

func newEnsembleCache(ctr *memo.Counters) *ensembleCache {
	return &ensembleCache{
		pools: memo.NewShared[*poolEntry](ensembleCacheCap, ctr),
		best:  memo.NewShared[*bestEntry](ensembleCacheCap, ctr),
	}
}

// poolEntry is one circuit's ranked candidate pool plus a memo of the
// executables materialized from it. Everything but exes is immutable
// after the build; exes grows under mu as different k values select
// overlapping candidates.
//
// raw, prog, seed, baseLayout and baseRes retain the build's
// intermediates for the drift-tracked pool upgrade (recompile.go). raw
// is the mono candidate list in *enumeration order*, before any sort or
// dedupe; an upgrade re-scores and re-ranks all of it. raw shares
// candidate pointers with cpool, so the extra memory is only the slice
// and any duplicates dedupe dropped.
type poolEntry struct {
	rp    *replacer
	cpool []*candidate
	err   error

	raw        []*candidate
	prog       *routeProg
	seed       []int // place() output the base routing started from
	baseLayout []int // routeDry's winning initial layout
	baseRes    passResult
	// monoLays is the set of raw's layout keys and order this
	// generation's sorted permutation of raw; the lineage's first upgrade
	// computes both and carries them down, so later upgrades skip the set
	// and start the sort from a nearly-sorted permutation (recompile.go).
	monoLays map[uint64]bool
	order    []int32

	mu   sync.Mutex
	exes map[*candidate]*Executable
}

// topK selects k members from the cached pool and materializes them,
// reusing executables already materialized for another k. Selection
// order and tie-breaks are identical to an uncached TopK call.
func (pe *poolEntry) topK(k int) ([]*Executable, error) {
	if pe.err != nil {
		return nil, pe.err
	}
	sel := selectDiverse(pe.cpool, k)
	out := make([]*Executable, len(sel))
	for i, cd := range sel {
		out[i] = pe.materialize(cd)
	}
	return out, nil
}

func (pe *poolEntry) materialize(cd *candidate) *Executable {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if exe, ok := pe.exes[cd]; ok {
		return exe
	}
	exe := pe.rp.materialize(cd)
	pe.exes[cd] = exe
	return exe
}

// bestEntry is one circuit's memoized k = 1 result.
type bestEntry struct {
	exes []*Executable
	err  error
}

// NewMemoCompiler is NewCompiler plus a private ensemble memo: TopK
// builds each circuit's candidate pool (k >= 2) and single-best result
// (k = 1) once, keeps the last ensembleCacheCap circuits of each, and
// counts its lookups in ctr. The compiler's tables and pools live
// exactly as long as the caller holds it; a long-lived owner that moves
// through many calibrations (the serving layer's windows) pays for one
// at a time.
func NewMemoCompiler(cal *device.Calibration, ctr *memo.Counters) *Compiler {
	c := NewCompiler(cal)
	c.ens = newEnsembleCache(ctr)
	return c
}

// circuitKey is the ensemble-cache key: the circuit's semantic
// fingerprint (registers, ordered ops, exact parameter bits).
func circuitKey(logical *circuit.Circuit) uint64 {
	return logical.Fingerprint()
}

// TopKCacheStats snapshots TopKCounters.
func TopKCacheStats() memo.Stats { return TopKCounters.Stats() }
