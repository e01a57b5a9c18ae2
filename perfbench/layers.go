package main

import (
	"time"

	"edm/internal/backend"
)

// perLayer lists the per-layer metrics a traced run prints. Each is
// measured from outside the program: by timing the benchmark's calls into a
// layer or by reading the layer's public counters. A layer a workload
// does not run reports 0.
var perLayer = []string{
	"experiment.round_ms", "experiment.round_cache_hit_frac",
	"mapper.topk_ms", "mapper.topk_calls", "mapper.topk_cache_hit_frac",
	"mapper.pool_hit_frac", "mapper.recompile_survival", "mapper.recompile_full",
	"core.ensemble_ms",
	"backend.run_ms", "backend.trials",
	"backend.plans_built", "backend.plan_build_ms",
	"backend.divergent_frac", "backend.mean_batch", "backend.lane_clones_per_trial",
	"backend.unit_steals", "backend.us_per_divergent_trial",
	"backend.prog_cache_hit_frac", "backend.run_cache_hit_frac", "backend.run_cache_entries",
	"backend.plan_heap_mb",
	"serve.tier_hit_frac", "serve.tier_wait_frac", "serve.hit_p50_ms", "serve.fresh_p50_ms",
	"serve.after_advance_p50_ms", "serve.advance_ms", "serve.rejected",
	"host.ref_rate", "trace.coverage", "trace.overhead",
}

// engineLayers fills the trajectory-engine metrics from two counter
// snapshots. sim is the busy time of the calls that ran the trials.
func engineLayers(l map[string]float64, a, b backend.EngineStats, sim time.Duration) {
	div := float64(b.DivergentTrials - a.DivergentTrials)
	full := float64(b.FullDominantTrials - a.FullDominantTrials)
	batched := float64(b.BatchTrials - a.BatchTrials)
	l["backend.divergent_frac"] = frac(div, div+full)
	l["backend.mean_batch"] = frac(batched, float64(b.BatchUnits-a.BatchUnits))
	l["backend.lane_clones_per_trial"] = frac(float64(b.BatchLaneClones-a.BatchLaneClones), batched)
	l["backend.unit_steals"] = float64(b.UnitSteals - a.UnitSteals)
	l["backend.plans_built"] = float64(b.PlansBuilt - a.PlansBuilt)
	l["backend.us_per_divergent_trial"] = frac(float64(sim)/1e3, div)
}

// fillLayers sets every per-layer metric the workload did not measure to 0.
func fillLayers(l map[string]float64) {
	for _, k := range perLayer {
		if _, ok := l[k]; !ok {
			l[k] = 0
		}
	}
}
