// Package memo provides the fingerprint-keyed memoization table shared by
// the campaign caches: the compiler cache and per-compiler Top-K pools in
// internal/mapper, the compiled-program and trial-run caches in
// internal/backend, and the Round cache in internal/experiment.
//
// A Cache is a bounded map from 64-bit fingerprints to immutable values
// with three properties the experiment sweeps need:
//
//   - Singleflight builds: when concurrent sweep cells miss on the same
//     key, exactly one goroutine runs the build function and the others
//     wait for its result instead of duplicating the most expensive work
//     in the process (compiler construction, VF2 enumeration, a 2048-trial
//     simulation).
//   - Ring-buffer FIFO eviction: evicted keys release their values
//     immediately. The slice-FIFO pattern this replaces
//     (fps = fps[1:]) kept every evicted value reachable through the
//     backing array for the lifetime of the cache.
//   - Hit / miss / singleflight-wait / eviction counters, optionally
//     shared across caches so a family of per-object caches (one Top-K
//     pool cache per compiler) reports one aggregate line.
//
// Values must be immutable once built — callers on a hit share the exact
// value the builder returned. Keys are caller-computed fingerprints; the
// cache trusts them, so two semantically different inputs hashing to the
// same 64 bits would alias (the repo-wide convention for its FNV-1a
// fingerprints, whose collision odds are negligible at campaign scale).
package memo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats is a snapshot of a cache's counters (the backend's
// compiled-program CacheStats is an alias of it).
type Stats struct {
	Hits      uint64
	Misses    uint64
	Waits     uint64 // singleflight waits: misses that joined an in-flight build
	Evictions uint64
	Entries   int // live entries (inserts minus evictions)
}

// Counters accumulates cache activity. A zero Counters is ready to use.
// One Counters may be shared by several caches (see NewShared), in which
// case its Stats aggregate across all of them.
type Counters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	waits     atomic.Uint64
	evictions atomic.Uint64
	inserts   atomic.Uint64
}

// Stats snapshots the counters.
func (c *Counters) Stats() Stats {
	ins, ev := c.inserts.Load(), c.evictions.Load()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Waits:     c.waits.Load(),
		Evictions: ev,
		Entries:   int(ins - ev),
	}
}

// entry is one cache slot. done is closed when val is ready; a build that
// panicked records the panic value instead and re-raises it in every
// waiter. gen is the generation the entry was built at (always 0 for
// plain Get; see GetGenCtx).
type entry[V any] struct {
	done     chan struct{}
	val      V
	gen      uint64
	panicked any
}

// Cache is a fingerprint-keyed, capacity-bounded memoization table with
// singleflight build deduplication. It is safe for concurrent use.
type Cache[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*entry[V]
	ring    []uint64 // circular insertion-order buffer of keys
	head    int      // index of the oldest key in ring
	n       int      // number of keys in ring
	ctr     *Counters
}

// New returns a cache holding at most capacity entries, with its own
// counters. capacity must be positive.
func New[V any](capacity int) *Cache[V] {
	return NewShared[V](capacity, &Counters{})
}

// NewShared is New with caller-supplied counters, so several caches can
// report one aggregate Stats line. The capacity is a compile-time choice
// on every call site in this repository, so a non-positive value is a
// programmer error and panics; configuration-supplied capacities (the
// serving layer's shard sizes) go through NewChecked instead.
func NewShared[V any](capacity int, ctr *Counters) *Cache[V] {
	c, err := NewChecked[V](capacity, ctr)
	if err != nil {
		panic(err)
	}
	return c
}

// NewChecked is NewShared returning an error instead of panicking on a
// non-positive capacity, for callers whose capacity comes from runtime
// configuration rather than a constant. A nil ctr allocates private
// counters.
func NewChecked[V any](capacity int, ctr *Counters) (*Cache[V], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("memo: cache capacity %d must be positive", capacity)
	}
	if ctr == nil {
		ctr = &Counters{}
	}
	return &Cache[V]{
		cap:     capacity,
		entries: make(map[uint64]*entry[V], capacity),
		ring:    make([]uint64, capacity),
		ctr:     ctr,
	}, nil
}

// Get returns the cached value for key, building it with build on a miss.
// Concurrent Gets for the same key run build once; the rest wait for the
// winner. If build panics, the panic propagates to the builder and every
// waiter, and the key is removed so a later Get retries. Get is GetGen at
// generation 0.
func (c *Cache[V]) Get(key uint64, build func() V) V { return c.GetGen(key, 0, build, nil) }

// GetCtx is Get with cancellation, GetGenCtx at generation 0.
func (c *Cache[V]) GetCtx(ctx context.Context, key uint64, build func() V) (V, error) {
	return c.GetGenCtx(ctx, key, 0, build, nil)
}

// GetGen is GetGenCtx with a context that is never cancelled.
func (c *Cache[V]) GetGen(key, gen uint64, build func() V, upgrade func(stale V) V) V {
	return value(c.GetGenCtx(context.Background(), key, gen, build, upgrade))
}

// value drops the error a never-cancelled context cannot produce.
func value[V any](v V, _ error) V { return v }

// GetGenCtx is the cache's one lookup path: Get with generation-tagged
// entries and cancellation. Generations are the invalidation mechanism
// behind drift-aware incremental recompilation (DESIGN.md §11). An entry
// is valid only for the generation it was built at:
//
//   - matching generation: a hit, or a singleflight wait on the
//     in-flight build;
//   - absent key: a miss built with build;
//   - stale completed entry: replaced in place — counted as one eviction
//     plus one miss/insert pair, keeping its FIFO ring slot — by an
//     in-flight entry whose value upgrade(stale) builds, so callers can
//     rebuild incrementally from the previous generation's value. The
//     stale value becomes unreachable the moment the replacement is
//     published; no waiter ever observes a value from another
//     generation.
//   - stale in-flight entry: callers wait for that build to finish
//     (counted as a wait) and retry, so at most one build runs per
//     (key, generation).
//
// A nil upgrade, or a stale entry left by a panicked build, falls back
// to build. Generations are expected to be monotone per key; racing
// different generations on one key is last-writer-wins.
//
// With a ctx that can never be cancelled the build runs on the caller's
// goroutine, and a panicking build propagates to the builder and every
// waiter and removes the key so a later call retries. A cancellable ctx
// is the serving path (DESIGN.md §12): the build runs detached to
// completion and publishes its value for every other (and future)
// caller, while a caller whose ctx expires detaches with ctx.Err(), so a
// request timeout can never poison the entry — one client abandoning a
// job must not invalidate the work for the clients still waiting on it.
// A detached build that panics records the panic and re-raises it in
// every caller that observes the entry; if every caller has detached,
// the panic is dropped with the entry (the next call retries).
func (c *Cache[V]) GetGenCtx(ctx context.Context, key, gen uint64, build func() V, upgrade func(stale V) V) (V, error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if ok && e.gen == gen {
			select {
			case <-e.done:
				c.ctr.hits.Add(1)
			default:
				c.ctr.waits.Add(1)
			}
			c.mu.Unlock()
			return waitEntry(ctx, e)
		}
		if ok {
			select {
			case <-e.done:
			default:
				// A stale generation is still building. Its waiters need
				// that value; we need this generation's. Wait it out (or
				// detach) and retry so the two builds never run
				// concurrently.
				c.ctr.waits.Add(1)
				c.mu.Unlock()
				select {
				case <-e.done:
				case <-ctx.Done():
					var zero V
					return zero, ctx.Err()
				}
				continue
			}
		}
		ne := &entry[V]{done: make(chan struct{}), gen: gen}
		c.ctr.misses.Add(1)
		c.ctr.inserts.Add(1)
		var stale *entry[V]
		if ok {
			// Replace the stale entry in place: it keeps its ring slot, so
			// the live-entry/ring-slot invariant of evictOldestLocked holds
			// and the key keeps its original FIFO age.
			stale = e
			c.ctr.evictions.Add(1)
		} else {
			c.evictOldestLocked()
			c.ring[(c.head+c.n)%c.cap] = key
			c.n++
		}
		c.entries[key] = ne
		c.mu.Unlock()

		fill := func() V {
			if stale != nil && stale.panicked == nil && upgrade != nil {
				return upgrade(stale.val)
			}
			return build()
		}
		if ctx.Done() == nil {
			c.runBuild(key, ne, fill, true)
		} else {
			go c.runBuild(key, ne, fill, false)
		}
		return waitEntry(ctx, ne)
	}
}

// waitEntry waits for an in-flight entry with cancellation. A completed
// entry wins over an already-expired ctx, so hits never turn into
// spurious cancellation errors.
func waitEntry[V any](ctx context.Context, e *entry[V]) (V, error) {
	select {
	case <-e.done:
	default:
		select {
		case <-e.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.val, nil
}

// runBuild executes build for a freshly inserted in-flight entry,
// publishing the value (or the panic) to every waiter. A panicking build
// removes the entry so a later call retries, and is re-raised here only
// when the caller's goroutine runs the build (rethrow): a detached build
// is owned by the cache, and a panic there would kill the process from a
// goroutine no caller owns.
func (c *Cache[V]) runBuild(key uint64, e *entry[V], build func() V, rethrow bool) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			close(e.done)
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
				c.ctr.evictions.Add(1)
			}
			c.mu.Unlock()
			if rethrow {
				panic(r)
			}
		}
	}()
	e.val = build()
	close(e.done)
}

// evictOldestLocked makes room for one insertion. Every live entry owns
// exactly one ring slot (a key re-inserted after eviction gets a fresh
// slot; a panicked build leaves a stale slot behind), so len(entries) <=
// n always, and popping the ring until it has a free slot also guarantees
// the map does. A popped key whose entry is already gone is just a stale
// slot; a live one is the FIFO eviction.
func (c *Cache[V]) evictOldestLocked() {
	for c.n >= c.cap {
		old := c.ring[c.head]
		c.head = (c.head + 1) % c.cap
		c.n--
		if _, ok := c.entries[old]; ok {
			delete(c.entries, old)
			c.ctr.evictions.Add(1)
		}
	}
}

// Stats snapshots the cache's counters. For a NewShared cache the numbers
// aggregate every cache sharing the Counters.
func (c *Cache[V]) Stats() Stats { return c.ctr.Stats() }

// Len returns the number of live entries in this cache.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Each calls f with every live, completed value. In-flight builds are
// skipped (Each never blocks on a builder). Iteration order is
// unspecified. The entries are snapshotted under the lock and f runs
// outside it, so f may call back into this cache (including Get on the
// keys it is handed) without deadlocking; values inserted or evicted
// while the callbacks run may or may not be observed.
func (c *Cache[V]) Each(f func(key uint64, v V)) {
	type kv struct {
		k uint64
		v V
	}
	c.mu.Lock()
	snap := make([]kv, 0, len(c.entries))
	for k, e := range c.entries {
		select {
		case <-e.done:
			if e.panicked == nil {
				snap = append(snap, kv{k, e.val})
			}
		default:
		}
	}
	c.mu.Unlock()
	for _, p := range snap {
		f(p.k, p.v)
	}
}

// Reset drops every entry (in-flight builds still complete for their
// waiters but are no longer shared) and counts the drops as evictions so
// shared counters stay consistent.
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctr.evictions.Add(uint64(len(c.entries)))
	c.entries = make(map[uint64]*entry[V], c.cap)
	c.head, c.n = 0, 0
}

// FNV-1a 64-bit constants, matching the repo's other fingerprints.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// Mix folds one 64-bit word into a running FNV-1a hash, byte by byte —
// the building block for composite cache keys such as
// (setup fingerprint, round index) or (circuit fingerprint, trials, rng
// state). Start from Seed.
func Mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	return h
}

// Seed is the FNV-1a offset basis, the canonical starting hash for Mix
// chains.
func Seed() uint64 { return fnvOffset64 }
