// Package serve is the fault-tolerant compile+run service behind cmd/edmd
// (DESIGN.md §12). It accepts circuit jobs — a named workload or an inline
// circuit, a trial budget, a seed and a merge policy — deduplicates them
// through the repository's fingerprint-keyed memoization layers, and
// returns merged EDM/WEDM distributions under the same determinism
// contract as the batch CLI: a job's result is a pure function of
// (service window, circuit fingerprint, policy, k, trials, seed), so the
// bytes served over HTTP are identical to the bytes `edm run` prints for
// the same job, and identical across cache hits, misses and restarts.
package serve

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"edm/internal/circuit"
	"edm/internal/core"
	"edm/internal/memo"
	"edm/internal/workloads"
)

// ErrBadJob marks errors caused by the job payload rather than the
// service: malformed specs, unparsable circuits, circuits the device
// cannot hold. The HTTP layer maps errors.Is(err, ErrBadJob) to a 4xx
// status; everything else is a 5xx. This is the boundary satellite 1 is
// about: user input must surface as an error value, never a panic.
var ErrBadJob = errors.New("bad job")

// badJob wraps err (or a formatted message) as an ErrBadJob.
func badJob(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadJob, fmt.Sprintf(format, args...))
}

// Job size limits. These bound what one request can cost before admission
// control even sees it; they are service protection, not physics.
const (
	// MaxTrials caps a single job's trial budget (64x the paper's 16384).
	MaxTrials = 1 << 20
	// MaxK caps the ensemble size.
	MaxK = 64
	// MaxCircuitBytes caps an inline circuit source.
	MaxCircuitBytes = 1 << 20
)

// JobSpec is the wire format of one job. Exactly one of Workload and
// Circuit must be set.
type JobSpec struct {
	// Workload names one of the paper's Table-1 benchmarks (bv-6,
	// qaoa-5, adder, ...).
	Workload string `json:"workload,omitempty"`
	// Circuit is an inline circuit in the repo text format (default) or
	// OpenQASM 2.0, per Format.
	Circuit string `json:"circuit,omitempty"`
	Format  string `json:"format,omitempty"` // "text" (default) or "qasm"
	// K is the ensemble size (default 4, the paper's). Ignored for the
	// "best" policy, which is always single-mapping.
	K int `json:"k,omitempty"`
	// Trials is the total trial budget, split across members. Required.
	Trials int `json:"trials"`
	// Seed is the job's RNG seed; same (window, job, seed) ⇒ same bytes.
	Seed uint64 `json:"seed"`
	// Policy selects the merge rule: "edm" (default), "wedm", or "best"
	// (the single-best-mapping baseline).
	Policy string `json:"policy,omitempty"`
	// UniformityFilter is core.Config.UniformityFilter (0 disables).
	UniformityFilter float64 `json:"uniformity_filter,omitempty"`
	// Tenant is the fairness bucket for admission control; empty means
	// the anonymous bucket.
	Tenant string `json:"tenant,omitempty"`
}

// policies maps the wire policy names to their merge weighting. "best" is
// handled separately (it pins K to 1).
var policies = map[string]core.Weighting{
	"edm":  core.WeightUniform,
	"wedm": core.WeightDivergence,
	"best": core.WeightUniform,
}

// normalize fills the spec's defaults in place.
func (s *JobSpec) normalize() {
	if s.Policy == "" {
		s.Policy = "edm"
	}
	if s.Format == "" {
		s.Format = "text"
	}
	if s.K == 0 {
		s.K = 4
	}
	if s.Policy == "best" {
		s.K = 1
	}
}

// Validate checks the normalized spec and returns an ErrBadJob describing
// the first problem found, or nil.
func (s *JobSpec) Validate() error {
	if (s.Workload == "") == (s.Circuit == "") {
		return badJob("exactly one of workload and circuit must be set")
	}
	if len(s.Circuit) > MaxCircuitBytes {
		return badJob("inline circuit is %d bytes, limit %d", len(s.Circuit), MaxCircuitBytes)
	}
	if s.Format != "text" && s.Format != "qasm" {
		return badJob("unknown circuit format %q (want text or qasm)", s.Format)
	}
	if _, ok := policies[s.Policy]; !ok {
		return badJob("unknown policy %q (want edm, wedm or best)", s.Policy)
	}
	if s.K < 1 || s.K > MaxK {
		return badJob("ensemble size %d out of range [1, %d]", s.K, MaxK)
	}
	if s.Trials < s.K {
		return badJob("%d trials cannot cover %d members", s.Trials, s.K)
	}
	if s.Trials > MaxTrials {
		return badJob("%d trials over the per-job limit %d", s.Trials, MaxTrials)
	}
	if s.UniformityFilter < 0 || math.IsNaN(s.UniformityFilter) || math.IsInf(s.UniformityFilter, 0) {
		return badJob("uniformity filter %v must be a finite non-negative number", s.UniformityFilter)
	}
	return nil
}

// buildCircuit resolves the spec to a logical circuit. Parse and lookup
// failures are ErrBadJob: they describe the payload, not the service. So
// is an inline circuit that measures no qubit: a job's result is a
// histogram of measured bits, and such a circuit would report an empty
// bitstring or a bit nothing wrote. Circuit.Validate accepts it, since
// library callers may simulate circuits without measuring them.
func (s *JobSpec) buildCircuit() (*circuit.Circuit, error) {
	if s.Workload != "" {
		w, ok := workloads.ByName(s.Workload)
		if !ok {
			names := make([]string, 0, 9)
			for _, x := range workloads.All() {
				names = append(names, x.Name)
			}
			return nil, badJob("unknown workload %q (have %s)", s.Workload, strings.Join(names, ", "))
		}
		return w.Circuit, nil
	}
	var (
		c   *circuit.Circuit
		err error
	)
	if s.Format == "qasm" {
		c, err = circuit.ParseQASM(s.Circuit)
	} else {
		c, err = circuit.ParseText(s.Circuit)
	}
	if err != nil {
		return nil, badJob("parse circuit: %v", err)
	}
	if err := c.Validate(); err != nil {
		return nil, badJob("%v", err)
	}
	if c.Stats().M == 0 {
		return nil, badJob("circuit measures no qubit: a job reports measured bits, so it needs at least one measure")
	}
	return c, nil
}

// config translates the spec into the core ensemble configuration.
func (s *JobSpec) config() core.Config {
	return core.Config{
		K:                s.K,
		Trials:           s.Trials,
		Weighting:        policies[s.Policy],
		UniformityFilter: s.UniformityFilter,
	}
}

// key fingerprints everything the result depends on besides the service
// window: the circuit and every result-affecting spec field. Tenant and
// transport details deliberately stay out — two tenants posting the same
// job share one compile and one simulation.
func (s *JobSpec) key(fp uint64) uint64 {
	h := memo.Mix(memo.Seed(), fp)
	h = memo.Mix(h, uint64(s.K))
	h = memo.Mix(h, uint64(s.Trials))
	h = memo.Mix(h, s.Seed)
	h = memo.Mix(h, uint64(policyCode(s.Policy)))
	h = memo.Mix(h, math.Float64bits(s.UniformityFilter))
	return h
}

// policyCode gives each policy a stable small integer for key mixing.
func policyCode(p string) int {
	switch p {
	case "edm":
		return 0
	case "wedm":
		return 1
	case "best":
		return 2
	default:
		return -1
	}
}

// Outcome is one merged-distribution entry on the wire.
type Outcome struct {
	Outcome string  `json:"outcome"`
	P       float64 `json:"p"`
}

// MemberInfo summarizes one ensemble member on the wire.
type MemberInfo struct {
	ESP       float64 `json:"esp"`
	Weight    float64 `json:"weight"`
	Discarded bool    `json:"discarded,omitempty"`
}

// JobResult is the wire format of a completed job. Merged is sorted by
// decreasing probability with ties broken by outcome value — the same
// deterministic order dist.Sorted gives the paper's figures.
type JobResult struct {
	Workload    string       `json:"workload,omitempty"`
	Fingerprint string       `json:"fingerprint"`
	Window      int          `json:"window"`
	Policy      string       `json:"policy"`
	K           int          `json:"k"`
	Trials      int          `json:"trials"`
	Seed        uint64       `json:"seed"`
	Merged      []Outcome    `json:"merged"`
	Members     []MemberInfo `json:"members"`
}

// newJobResult flattens a core result into the wire shape.
func newJobResult(spec *JobSpec, fp uint64, window int, res *core.Result) *JobResult {
	jr := &JobResult{
		Workload:    spec.Workload,
		Fingerprint: fmt.Sprintf("%016x", fp),
		Window:      window,
		Policy:      spec.Policy,
		K:           spec.K,
		Trials:      spec.Trials,
		Seed:        spec.Seed,
	}
	for _, o := range res.Merged.Sorted() {
		jr.Merged = append(jr.Merged, Outcome{Outcome: o.Value.String(), P: o.P})
	}
	for i := range res.Members {
		m := &res.Members[i]
		jr.Members = append(jr.Members, MemberInfo{
			ESP:       m.Exec.ESP,
			Weight:    m.Weight,
			Discarded: m.Discarded,
		})
	}
	return jr
}

// Text renders the merged distribution in the canonical text format both
// `edm run` and the server's format=text responses emit: one
// "outcome probability" line per non-zero outcome, probabilities printed
// with strconv's shortest round-trip formatting so equality of results
// implies equality of bytes.
func (r *JobResult) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s window=%d policy=%s k=%d trials=%d seed=%d\n",
		r.name(), r.Window, r.Policy, r.K, r.Trials, r.Seed)
	for _, o := range r.Merged {
		sb.WriteString(o.Outcome)
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatFloat(o.P, 'g', -1, 64))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// name labels the result for the text header.
func (r *JobResult) name() string {
	if r.Workload != "" {
		return r.Workload
	}
	return "circuit:" + r.Fingerprint
}

// MostLikely returns the top outcome, or false for an empty distribution.
func (r *JobResult) MostLikely() (Outcome, bool) {
	if len(r.Merged) == 0 {
		return Outcome{}, false
	}
	return r.Merged[0], true
}
