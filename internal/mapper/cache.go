package mapper

import (
	"sync"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/memo"
)

// Compiler construction runs all-pairs reliability Dijkstra and builds
// the dense gate tables, and the experiment campaign constructs a
// compiler for the same calibration once per (workload, round, policy)
// cell. CachedCompiler memoizes compilers by calibration fingerprint so
// that work happens once per calibration window, and attaches a
// per-compiler ensemble cache so the TopK candidate pool for each
// circuit is built once and shared by every k the campaign asks for.

// compilerCacheCap bounds the compiler cache. An experiment sweep
// touches one calibration per round; 32 covers every campaign in the
// repository with room for concurrent sweeps.
const compilerCacheCap = 32

// ensembleCacheCap bounds each compiler's per-circuit pool and
// single-best caches. The campaign's workload suite has 9 circuits.
const ensembleCacheCap = 16

var (
	compilerCtr   memo.Counters
	compilerCache = memo.NewShared[*Compiler](compilerCacheCap, &compilerCtr)

	// topkCtr aggregates across every compiler's ensemble caches, so the
	// campaign reports one Top-K line no matter how many calibrations it
	// touched.
	topkCtr memo.Counters
)

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
// intermediates for incremental recompilation (recompile.go). raw is the
// mono candidate list in *enumeration order*, before any sort or dedupe:
// re-ranking under a new calibration must replay the exact
// sort/split/dedupe pipeline on the full multiset, because dedupeByLayout
// keeps whichever same-layout candidate ranks first — a choice that can
// flip when ESPs move — and sortCandidates' stable ties are broken by
// pre-sort order. raw shares candidate pointers with cpool, so the extra
// memory is only the dropped duplicates.
type poolEntry struct {
	rp    *replacer
	cpool []*candidate
	err   error

	gen        uint64 // calibration generation (Tracking pools only)
	raw        []*candidate
	prog       *routeProg
	seed       []int // place() output the base routing started from
	baseLayout []int // routeDry's winning initial layout
	baseRes    passResult
	// groups indexes the immutable skey/lkey structure of raw and order
	// is this generation's sorted permutation of it; both are computed by
	// the first incremental upgrade and carried down the lineage so later
	// upgrades replace the assembly's hash maps with dense passes and
	// start the sort from a nearly-sorted permutation (recompile.go).
	groups *poolGroups
	order  []int32

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

// CachedCompiler returns a compiler for the calibration, reusing a
// previously built one when the calibration fingerprint matches
// (device.Calibration.Fingerprint hashes every field that affects
// compilation). Concurrent callers that miss on the same fingerprint
// share a single construction. The calibration must not be mutated after
// the call — the same contract as NewCompiler, made durable by the
// cache. Compilers are immutable, so a cached instance is safe to share
// across goroutines.
//
// Unlike NewCompiler, the returned compiler also memoizes TopK ensembles
// per circuit fingerprint (see DESIGN.md §9); call Uncached for a view
// without that layer.
func CachedCompiler(cal *device.Calibration) *Compiler {
	return compilerCache.Get(cal.Fingerprint(), func() *Compiler {
		return NewMemoCompiler(cal, &topkCtr)
	})
}

// NewMemoCompiler is NewCompiler plus a private ensemble memo: TopK
// builds each circuit's candidate pool (k >= 2) and single-best result
// (k = 1) once, keeps the last ensembleCacheCap circuits of each, and
// counts its lookups in ctr. The compiler is not entered in the
// process-wide cache, so its tables and pools live exactly as long as
// the caller holds it; a long-lived owner that moves through many
// calibrations (the serving layer's windows) pays for one at a time.
func NewMemoCompiler(cal *device.Calibration, ctr *memo.Counters) *Compiler {
	c := NewCompiler(cal)
	c.ens = newEnsembleCache(ctr)
	return c
}

// Uncached returns a view of the compiler with ensemble caching
// disabled: every TopK call re-enumerates and re-materializes from
// scratch, replicating the cost structure of a compiler built with
// NewCompiler. The view shares the receiver's immutable tables, so it is
// free to construct and safe to use concurrently with the original.
func (c *Compiler) Uncached() *Compiler {
	if c.ens == nil {
		return c
	}
	cc := *c
	cc.ens = nil
	return &cc
}

// circuitKey is the ensemble-cache key: the circuit's semantic
// fingerprint (registers, ordered ops, exact parameter bits).
func circuitKey(logical *circuit.Circuit) uint64 {
	return logical.Fingerprint()
}

// CompilerCacheStats snapshots the CachedCompiler cache counters.
func CompilerCacheStats() memo.Stats { return compilerCtr.Stats() }

// TopKCacheStats snapshots the ensemble (Top-K pool + single-best)
// cache counters, aggregated across every cached compiler.
func TopKCacheStats() memo.Stats { return topkCtr.Stats() }

// ResetCompilerCache drops every cached compiler — and with them their
// ensemble caches. Tests and benchmarks use it to measure cold paths.
func ResetCompilerCache() {
	compilerCache.Each(func(_ uint64, c *Compiler) {
		if c.ens != nil {
			c.ens.pools.Reset()
			c.ens.best.Reset()
		}
	})
	compilerCache.Reset()
}
