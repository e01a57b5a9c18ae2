// Package core implements the paper's contribution: the Ensemble of
// Diverse Mappings (EDM) and its weighted variant (WEDM).
//
// The pipeline follows Figure 5 of the paper:
//
//  1. a variation-aware compiler produces the best initial mapping and
//     SWAP schedule (package mapper),
//  2. all isomorphic sub-graph placements are enumerated and ranked by
//     ESP, keeping the top K (mapper.TopK),
//  3. the trial budget is split evenly over the K executables and each
//     group runs on the machine (package backend),
//  4. the K output probability distributions are merged — uniformly for
//     EDM, or weighted by each member's summed symmetric KL divergence
//     from the others for WEDM (Appendix B, Equations 5-6).
//
// The figure of merit is IST (Inference Strength), the ratio of the
// correct outcome's probability to the strongest wrong outcome's
// probability; the paper's reliability claims are IST improvements of the
// merged ensemble distribution over the single-best-mapping baseline.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"edm/internal/backend"
	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/rng"
)

// Weighting selects the merge rule for the ensemble outputs.
type Weighting int

const (
	// WeightUniform merges members with equal weights — EDM (Section 5.2).
	WeightUniform Weighting = iota
	// WeightDivergence weights each member by its cumulative symmetric KL
	// divergence from the other members — WEDM (Section 6).
	WeightDivergence
	// WeightInverseDivergence inverts the WEDM weights (similar members
	// weighted up). It exists as an ablation control: it should do worse
	// than both EDM and WEDM.
	WeightInverseDivergence
)

// String returns the scheme name.
func (w Weighting) String() string {
	switch w {
	case WeightUniform:
		return "EDM"
	case WeightDivergence:
		return "WEDM"
	case WeightInverseDivergence:
		return "inverse-WEDM"
	default:
		return fmt.Sprintf("weighting(%d)", int(w))
	}
}

// Config parameterizes an ensemble run.
type Config struct {
	// K is the ensemble size; the paper's default is 4 (Section 5.5).
	K int
	// Trials is the total trial budget, split evenly across members so
	// the ensemble spends exactly as many shots as the baseline (the
	// paper uses 16384 total, 4096 per member).
	Trials int
	// Weighting selects EDM or WEDM merging.
	Weighting Weighting
	// UniformityFilter, when positive, discards members whose output is
	// within this factor of uniform by relative standard deviation before
	// merging (footnote 2 of the paper). Zero disables the filter.
	UniformityFilter float64
}

// DefaultConfig returns the paper's defaults: a 4-member ensemble and
// 16384 total trials with uniform (EDM) merging.
func DefaultConfig() Config {
	return Config{K: 4, Trials: 16384, Weighting: WeightUniform}
}

// Member is one ensemble member's executable and observed output.
type Member struct {
	Exec *mapper.Executable
	// Counts is the raw output log of this member's trials.
	Counts *dist.Counts
	// Output is the normalized output distribution.
	Output *dist.Dist
	// Weight is the normalized merge weight this member received.
	Weight float64
	// Discarded reports that the uniformity filter removed this member
	// from the merge.
	Discarded bool
}

// Result is the outcome of an ensemble run.
type Result struct {
	Members []Member
	// Merged is the combined output distribution of the ensemble.
	Merged *dist.Dist
	Config Config
}

// MemberOutputs returns the per-member output distributions in order.
func (r *Result) MemberOutputs() []*dist.Dist {
	out := make([]*dist.Dist, len(r.Members))
	for i := range r.Members {
		out[i] = r.Members[i].Output
	}
	return out
}

// Runner orchestrates ensemble runs against one compiler (compile-time
// calibration) and one machine (runtime behaviour). Keeping the two
// separate models the calibration drift of paper Section 5.3: the
// compiler ranks mappings with stale data while the machine executes with
// the drifted truth.
type Runner struct {
	Compiler *mapper.Compiler
	Machine  *backend.Machine
}

// NewRunner builds a runner.
func NewRunner(c *mapper.Compiler, m *backend.Machine) *Runner {
	return &Runner{Compiler: c, Machine: m}
}

// Run is RunCtx with a context that is never cancelled.
func (r *Runner) Run(logical *circuit.Circuit, cfg Config, rr *rng.RNG) (*Result, error) {
	return r.RunCtx(context.Background(), logical, cfg, rr)
}

// RunCtx executes the full EDM pipeline on the logical circuit and
// returns the per-member outputs and the merged ensemble distribution.
// ctx is threaded through the compile (mapper.TopKCtx) and execution
// (backend.RunCtx) hot paths; results are bit-identical whenever ctx
// does not expire, and a cancelled request returns ctx.Err() wrapped
// with the failing member.
func (r *Runner) RunCtx(ctx context.Context, logical *circuit.Circuit, cfg Config, rr *rng.RNG) (*Result, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("core: ensemble size %d must be positive", cfg.K)
	}
	if cfg.Trials < cfg.K {
		return nil, fmt.Errorf("core: %d trials cannot cover %d members", cfg.Trials, cfg.K)
	}
	execs, err := r.Compiler.TopKCtx(ctx, logical, cfg.K)
	if err != nil {
		return nil, err
	}
	return r.RunExecutablesCtx(ctx, execs, cfg, rr)
}

// RunExecutables is RunExecutablesCtx with a context that is never
// cancelled.
func (r *Runner) RunExecutables(execs []*mapper.Executable, cfg Config, rr *rng.RNG) (*Result, error) {
	return r.RunExecutablesCtx(context.Background(), execs, cfg, rr)
}

// RunExecutablesCtx runs a pre-compiled ensemble: cfg.Trials are split
// as evenly as possible (earlier members receive the remainder), each
// member executes on the machine, and the outputs are merged per
// cfg.Weighting. Every member must receive at least one trial.
//
// Members run concurrently: each one derives an independent RNG stream
// from its index before its goroutine starts, and results land in their
// member slot, so the outcome is bit-identical to running them serially.
// Member fan-out is capped at GOMAXPROCS, and the backend additionally
// gates its trial workers through a process-wide token pool, so
// member-level and trial-level parallelism compose instead of
// oversubscribing the CPUs. Each member's run goes through
// backend.RunCtx, so an expiring request detaches from (or aborts,
// depending on the machine's run cache) the remaining simulation
// instead of blocking until the full trial budget completes.
func (r *Runner) RunExecutablesCtx(ctx context.Context, execs []*mapper.Executable, cfg Config, rr *rng.RNG) (*Result, error) {
	if len(execs) == 0 {
		return nil, fmt.Errorf("core: empty ensemble")
	}
	if cfg.Trials < len(execs) {
		return nil, fmt.Errorf("core: %d trials cannot cover %d members", cfg.Trials, len(execs))
	}
	res := &Result{Config: cfg, Members: make([]Member, len(execs))}
	base := cfg.Trials / len(execs)
	rem := cfg.Trials % len(execs)

	fanout := runtime.GOMAXPROCS(0)
	if fanout > len(execs) {
		fanout = len(execs)
	}
	sem := make(chan struct{}, fanout)
	errs := make([]error, len(execs))
	var wg sync.WaitGroup
	for i, exe := range execs {
		trials := base
		if i < rem {
			trials++
		}
		memberRNG := rr.DeriveN("member", i)
		wg.Add(1)
		go func(i int, exe *mapper.Executable, trials int, mr *rng.RNG) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			counts, err := r.Machine.RunCtx(ctx, exe.Circuit, trials, mr)
			if err != nil {
				errs[i] = fmt.Errorf("core: member %d: %w", i, err)
				return
			}
			res.Members[i] = Member{Exec: exe, Counts: counts, Output: counts.Dist()}
		}(i, exe, trials, memberRNG)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := mergeChecked(res, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// mergeChecked combines member outputs into res.Merged, applying the
// uniformity filter and the configured weighting, and records
// per-member weights. It goes through the error-returning dist entry
// points, since member sets on the serving path trace back to user
// payloads.
func mergeChecked(res *Result, cfg Config) (err error) {
	kept := make([]int, 0, len(res.Members))
	if cfg.UniformityFilter > 0 {
		for i := range res.Members {
			if res.Members[i].Output.IsNearUniform(cfg.UniformityFilter) {
				res.Members[i].Discarded = true
			} else {
				kept = append(kept, i)
			}
		}
	}
	if len(kept) == 0 {
		kept = kept[:0]
		for i := range res.Members {
			res.Members[i].Discarded = false
			kept = append(kept, i)
		}
	}
	dists := make([]*dist.Dist, len(kept))
	for j, i := range kept {
		dists[j] = res.Members[i].Output
	}
	weights := MergeWeights(dists, cfg.Weighting)
	var total float64
	for _, w := range weights {
		total += w
	}
	for j, i := range kept {
		res.Members[i].Weight = weights[j] / total
	}
	res.Merged, err = dist.WeightedMergeChecked(dists, weights)
	return err
}

// MergeWeights returns the raw (unnormalized) member weights for the
// given weighting scheme. With a single member, or when every pair of
// members is identical (all divergences zero), the weights degrade to
// uniform.
func MergeWeights(dists []*dist.Dist, w Weighting) []float64 {
	uniform := func() []float64 {
		out := make([]float64, len(dists))
		for i := range out {
			out[i] = 1
		}
		return out
	}
	if len(dists) <= 1 || w == WeightUniform {
		return uniform()
	}
	dw := dist.DivergenceWeights(dists)
	var total float64
	for _, v := range dw {
		total += v
	}
	if total <= 0 {
		return uniform()
	}
	if w == WeightDivergence {
		return dw
	}
	// Inverse weighting (ablation): weight ~ 1 / (divergence + epsilon).
	const eps = 1e-9
	out := make([]float64, len(dw))
	for i, v := range dw {
		out[i] = 1 / (v + eps)
	}
	return out
}

// RunSingleBest runs the baseline the paper compares against: the single
// best compile-time mapping receives the entire trial budget.
func (r *Runner) RunSingleBest(logical *circuit.Circuit, trials int, rr *rng.RNG) (*Member, error) {
	execs, err := r.Compiler.TopK(logical, 1)
	if err != nil {
		return nil, err
	}
	return r.runOne(execs[0], trials, rr)
}

// runOne executes one mapping for the full budget.
func (r *Runner) runOne(exe *mapper.Executable, trials int, rr *rng.RNG) (*Member, error) {
	counts, err := r.Machine.Run(exe.Circuit, trials, rr)
	if err != nil {
		return nil, err
	}
	return &Member{Exec: exe, Counts: counts, Output: counts.Dist(), Weight: 1}, nil
}

// BestPostExec selects, from an ensemble result, the member whose
// observed PST for the given correct outcome was highest — the paper's
// "single best mapping post execution" — and re-runs that mapping with
// the full trial budget so the comparison is shot-for-shot fair.
func (r *Runner) BestPostExec(res *Result, correct bitstr.BitString, trials int, rr *rng.RNG) (*Member, error) {
	bestIdx, bestPST := -1, -1.0
	for i := range res.Members {
		p := res.Members[i].Output.PST(correct)
		if p > bestPST {
			bestPST = p
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return nil, fmt.Errorf("core: empty ensemble result")
	}
	return r.runOne(res.Members[bestIdx].Exec, trials, rr)
}
