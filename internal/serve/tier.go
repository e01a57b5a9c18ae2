package serve

import (
	"context"
	"fmt"
	"math/bits"

	"edm/internal/memo"
)

// Tier is the service's job-result cache: a power-of-two array of
// independently locked, size-bounded memo shards. Sharding keeps the
// result tier's lock off the hot path under concurrent load — jobs
// hashing to different shards never contend — while each shard keeps
// memo's singleflight guarantee, so concurrent duplicate jobs still share
// exactly one execution.
//
// An entry's memo generation is the calibration window it was computed
// in (see Service.RunJob), so after an advance a cached job is upgraded
// in place by the next request for it — one rebuild, same ring slot, no
// flush of its shard — and until someone asks, it costs nothing. Nothing
// else expires an entry: a job is a pure function of (window, job), so
// recomputing it within a window would serve the same bytes.
type Tier struct {
	shards []*memo.Cache[*jobOutcome]
	ctrs   []*memo.Counters
	mask   uint64
}

// jobOutcome is what a shard stores: a completed job or its deterministic
// failure. Errors are cached too — a circuit the device cannot hold fails
// identically every time, and caching the failure keeps a misbehaving
// client from re-running the compile that proves it.
type jobOutcome struct {
	res *JobResult
	err error
}

// NewTier builds a tier of shardCount shards (rounded up to a power of
// two) holding at most perShard entries each. Both come from service
// configuration, so failures are errors, not panics.
func NewTier(shardCount, perShard int) (*Tier, error) {
	if shardCount <= 0 {
		return nil, fmt.Errorf("serve: shard count %d must be positive", shardCount)
	}
	if shardCount > 1<<16 {
		return nil, fmt.Errorf("serve: shard count %d over limit %d", shardCount, 1<<16)
	}
	n := 1 << bits.Len(uint(shardCount-1)) // next power of two
	t := &Tier{
		shards: make([]*memo.Cache[*jobOutcome], n),
		ctrs:   make([]*memo.Counters, n),
		mask:   uint64(n - 1),
	}
	for i := range t.shards {
		ctr := &memo.Counters{}
		c, err := memo.NewChecked[*jobOutcome](perShard, ctr)
		if err != nil {
			return nil, err
		}
		t.shards[i], t.ctrs[i] = c, ctr
	}
	return t, nil
}

// Shards returns the shard count.
func (t *Tier) Shards() int { return len(t.shards) }

// shard picks the shard for a key. Keys are FNV-1a mixes, so the high
// bits are used for shard selection and the full key stays the map key —
// the low bits alone would correlate with the last Mix word.
func (t *Tier) shard(key uint64) *memo.Cache[*jobOutcome] {
	return t.shards[(key>>48)&t.mask]
}

// Do serves key at generation gen through its shard with the detached
// singleflight semantics of memo.GetGenCtx: concurrent duplicates share
// one build, a caller whose ctx expires detaches with ctx.Err(), and the
// build itself always completes and publishes.
func (t *Tier) Do(ctx context.Context, key, gen uint64, build func() *jobOutcome) (*jobOutcome, error) {
	return t.shard(key).GetGenCtx(ctx, key, gen, build, nil)
}

// ShardStats snapshots every shard's counters in shard order.
func (t *Tier) ShardStats() []memo.Stats {
	out := make([]memo.Stats, len(t.ctrs))
	for i, c := range t.ctrs {
		out[i] = c.Stats()
	}
	return out
}

// Stats aggregates the shard counters into one line.
func (t *Tier) Stats() memo.Stats {
	var agg memo.Stats
	for _, s := range t.ShardStats() {
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Waits += s.Waits
		agg.Evictions += s.Evictions
		agg.Entries += s.Entries
	}
	return agg
}
