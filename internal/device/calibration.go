package device

import (
	"fmt"
	"math"
	"sort"

	"edm/internal/rng"
)

// Calibration holds the error-characterization data for a device, the
// analogue of the data IBM publishes after every calibration cycle and
// exposes through the qiskit API (paper Section 2.4). Stochastic rates are
// probabilities; coherent terms are systematic rotation angles in radians.
// The coherent terms are what make errors *correlated* in the paper's
// sense: they are fixed properties of a physical qubit or link within a
// calibration window, so every trial executed on the same hardware makes
// the same systematic mistake.
type Calibration struct {
	Topo *Topology

	// Per-qubit stochastic rates.
	SQErr  []float64 // depolarizing error probability per one-qubit gate
	Meas01 []float64 // readout error P(read 1 | prepared 0)
	Meas10 []float64 // readout error P(read 0 | prepared 1); biased larger
	T1us   []float64 // amplitude-damping time constant, microseconds
	T2us   []float64 // dephasing time constant, microseconds

	// Per-qubit coherent (systematic) errors.
	CohY []float64 // over-rotation about Y applied with every gate on the qubit
	CohZ []float64 // phase drift about Z accumulated per idle window

	// Per-link rates.
	CXErr   map[Edge]float64 // depolarizing error probability per CX
	CXCohZZ map[Edge]float64 // systematic ZZ over-rotation applied with every CX
	CrossZZ map[Edge]float64 // spectator ZZ kick on this link when an adjacent CX fires

	// ReadoutCorr is the pairwise readout correlation: when a coupled
	// neighbour reads out 1, a qubit's own flip probabilities are scaled by
	// (1 + ReadoutCorr). Models the correlated SPAM errors reported by Sun
	// and Geller and cited in paper Section 2.6.
	ReadoutCorr float64

	// Gate durations, nanoseconds, used to convert T1/T2 into per-window
	// damping probabilities.
	Gate1QTimeNs float64
	Gate2QTimeNs float64
	MeasTimeNs   float64
}

// Validate checks structural consistency with the topology and the
// range of every numeric field. Comparisons are written so that NaN
// fails them; coherence times may be +Inf (a profile without damping),
// every other field must be finite.
func (c *Calibration) Validate() error {
	n := c.Topo.Qubits
	perQubit := map[string][]float64{
		"SQErr": c.SQErr, "Meas01": c.Meas01, "Meas10": c.Meas10,
		"T1us": c.T1us, "T2us": c.T2us, "CohY": c.CohY, "CohZ": c.CohZ,
	}
	for name, v := range perQubit {
		if len(v) != n {
			return fmt.Errorf("device: %s has %d entries for %d qubits", name, len(v), n)
		}
	}
	for name, vals := range map[string][]float64{"SQErr": c.SQErr, "Meas01": c.Meas01, "Meas10": c.Meas10} {
		for q, p := range vals {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("device: %s[%d] = %v out of [0,1]", name, q, p)
			}
		}
	}
	for q := 0; q < n; q++ {
		if !(c.T1us[q] > 0 && c.T2us[q] > 0) {
			return fmt.Errorf("device: non-positive coherence time on qubit %d", q)
		}
		if !finite(c.CohY[q]) || !finite(c.CohZ[q]) {
			return fmt.Errorf("device: non-finite coherent angle on qubit %d", q)
		}
	}
	for _, e := range c.Topo.Edges() {
		p, ok := c.CXErr[e]
		if !ok {
			return fmt.Errorf("device: missing CXErr for edge %v", e)
		}
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("device: CXErr[%v] = %v out of [0,1]", e, p)
		}
		zz, ok := c.CXCohZZ[e]
		if !ok {
			return fmt.Errorf("device: missing CXCohZZ for edge %v", e)
		}
		cross, ok := c.CrossZZ[e]
		if !ok {
			return fmt.Errorf("device: missing CrossZZ for edge %v", e)
		}
		if !finite(zz) || !finite(cross) {
			return fmt.Errorf("device: non-finite coherent angle on edge %v", e)
		}
	}
	if !finite(c.ReadoutCorr) {
		return fmt.Errorf("device: non-finite readout correlation %v", c.ReadoutCorr)
	}
	for _, ns := range [3]float64{c.Gate1QTimeNs, c.Gate2QTimeNs, c.MeasTimeNs} {
		if !(ns > 0) || math.IsInf(ns, 1) {
			return fmt.Errorf("device: gate times must be positive and finite")
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// MeasErrAvg returns the symmetrized readout error of qubit q, the figure
// ESP uses.
func (c *Calibration) MeasErrAvg(q int) float64 {
	return (c.Meas01[q] + c.Meas10[q]) / 2
}

// Clone returns a deep copy.
func (c *Calibration) Clone() *Calibration {
	out := *c
	out.SQErr = append([]float64(nil), c.SQErr...)
	out.Meas01 = append([]float64(nil), c.Meas01...)
	out.Meas10 = append([]float64(nil), c.Meas10...)
	out.T1us = append([]float64(nil), c.T1us...)
	out.T2us = append([]float64(nil), c.T2us...)
	out.CohY = append([]float64(nil), c.CohY...)
	out.CohZ = append([]float64(nil), c.CohZ...)
	out.CXErr = cloneEdgeMap(c.CXErr)
	out.CXCohZZ = cloneEdgeMap(c.CXCohZZ)
	out.CrossZZ = cloneEdgeMap(c.CrossZZ)
	return &out
}

func cloneEdgeMap(m map[Edge]float64) map[Edge]float64 {
	out := make(map[Edge]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Profile parameterizes calibration generation. Rates are drawn
// log-normally around the mean (Spread is the sigma of the underlying
// normal, so Spread 1.0 yields roughly a 7x ratio between the 10th and
// 90th percentile — matching the up-to-20x link variation the paper
// reports); coherent angles are drawn uniformly in [-Max, Max].
type Profile struct {
	SQErrMean, SQErrSpread   float64
	CXErrMean, CXErrSpread   float64
	Meas01Mean, Meas01Spread float64
	Meas10Mean, Meas10Spread float64
	T1MeanUs, T1Spread       float64
	T2MeanUs, T2Spread       float64
	CohYMax                  float64
	CohZMax                  float64
	CXCohMax                 float64
	CrossMax                 float64
	ReadoutCorr              float64
	// BadQubits marks this many qubits (chosen pseudo-randomly) as
	// outliers whose readout error is scaled by BadFactor — melbourne's
	// Q11/Q12 with readout errors up to 30% (paper footnote 3).
	BadQubits int
	BadFactor float64
	Gate1QNs  float64
	Gate2QNs  float64
	MeasNs    float64
}

// MelbourneProfile returns generation parameters modelled on the error
// characteristics the paper reports for IBMQ-14: ~0.1% one-qubit gate
// error, few-percent CX error with large link-to-link variation, several
// percent readout error with a state-dependent bias and up-to-30%
// outliers, and T1 of about 50 microseconds / T2 of about 30
// microseconds. Relative to the raw hardware numbers, some incoherent
// means are set slightly lower and the coherent (systematic) terms
// correspondingly stronger: what the reproduction must preserve is the
// paper's error *structure* — comparable overall failure rates dominated
// by repeatable, mapping-specific mistakes — and the paper itself shows
// (Section 4.4) that matching only the incoherent magnitudes, as IID
// simulators do, fails to reproduce the machine's inference behaviour.
// DESIGN.md records the calibration choices.
func MelbourneProfile() Profile {
	return Profile{
		SQErrMean: 0.001, SQErrSpread: 0.6,
		CXErrMean: 0.025, CXErrSpread: 0.6,
		Meas01Mean: 0.03, Meas01Spread: 0.9,
		Meas10Mean: 0.06, Meas10Spread: 0.9,
		T1MeanUs: 50, T1Spread: 0.3,
		T2MeanUs: 30, T2Spread: 0.3,
		CohYMax:     0.30,
		CohZMax:     0.20,
		CXCohMax:    0.50,
		CrossMax:    0.20,
		ReadoutCorr: 0.35,
		BadQubits:   2,
		BadFactor:   3.0,
		Gate1QNs:    100,
		Gate2QNs:    350,
		MeasNs:      1000,
	}
}

// IdealProfile returns a noiseless profile (useful for validating that the
// noisy pipeline reduces to the ideal simulator when all rates vanish).
func IdealProfile() Profile {
	return Profile{
		T1MeanUs: 1e9, T2MeanUs: 1e9,
		Gate1QNs: 100, Gate2QNs: 350, MeasNs: 1000,
	}
}

// Generate draws a calibration for the topology from the profile. The
// result is deterministic in the RNG state, so a single seed reproduces an
// entire experimental campaign.
func Generate(topo *Topology, p Profile, r *rng.RNG) *Calibration {
	n := topo.Qubits
	c := &Calibration{
		Topo:         topo,
		SQErr:        make([]float64, n),
		Meas01:       make([]float64, n),
		Meas10:       make([]float64, n),
		T1us:         make([]float64, n),
		T2us:         make([]float64, n),
		CohY:         make([]float64, n),
		CohZ:         make([]float64, n),
		CXErr:        make(map[Edge]float64),
		CXCohZZ:      make(map[Edge]float64),
		CrossZZ:      make(map[Edge]float64),
		ReadoutCorr:  p.ReadoutCorr,
		Gate1QTimeNs: p.Gate1QNs,
		Gate2QTimeNs: p.Gate2QNs,
		MeasTimeNs:   p.MeasNs,
	}
	qr := r.Derive("qubits")
	for q := 0; q < n; q++ {
		// A per-qubit quality factor couples the qubit's error metrics:
		// a badly fabricated or poorly tuned qubit has elevated gate
		// error, readout error AND systematic miscalibration, and reduced
		// coherence. This coupling is what gives the compile-time ESP
		// (which sees only the stochastic rates) its good-but-imperfect
		// correlation with run-time success (paper Figure 8): the
		// coherent component tracks the stochastic one without being
		// visible to ESP.
		fq := math.Exp(p.SQErrSpread * qr.Norm())
		c.SQErr[q] = clamp(p.SQErrMean*fq*jitter(qr, p.SQErrSpread), 0, 0.25)
		c.Meas01[q] = clamp(p.Meas01Mean*fq*jitter(qr, p.Meas01Spread), 0, 0.45)
		c.Meas10[q] = clamp(p.Meas10Mean*fq*jitter(qr, p.Meas10Spread), 0, 0.45)
		c.T1us[q] = p.T1MeanUs * math.Exp(p.T1Spread*qr.Norm()) / math.Sqrt(fq)
		c.T2us[q] = p.T2MeanUs * math.Exp(p.T2Spread*qr.Norm()) / math.Sqrt(fq)
		// T2 <= 2*T1 physically.
		if c.T2us[q] > 2*c.T1us[q] {
			c.T2us[q] = 2 * c.T1us[q]
		}
		// Coherent magnitude couples only mildly (square root) to the
		// quality factor: systematic miscalibration afflicts good and bad
		// qubits alike, merely trending worse on bad ones. A strong
		// coupling would hand the ESP champion near-clean systematics,
		// letting it dominate every diverse alternative at run time — the
		// opposite of the comparable-quality, dissimilar-mistake members
		// the paper measures.
		mag := math.Sqrt(math.Min(fq, 2.5))
		c.CohY[q] = signedFloored(qr, p.CohYMax) * mag
		c.CohZ[q] = signedFloored(qr, p.CohZMax) * mag
	}
	// Outlier readout qubits.
	if p.BadQubits > 0 && p.BadFactor > 0 {
		perm := r.Derive("bad").Perm(n)
		for i := 0; i < p.BadQubits && i < n; i++ {
			q := perm[i]
			c.Meas01[q] = clamp(c.Meas01[q]*p.BadFactor, 0, 0.45)
			c.Meas10[q] = clamp(c.Meas10[q]*p.BadFactor, 0, 0.45)
		}
	}
	er := r.Derive("edges")
	for _, e := range topo.Edges() {
		// Per-link quality factor, coupling the link's stochastic CX
		// error to its systematic ZZ miscalibration for the same reason
		// as the per-qubit factor above.
		ge := math.Exp(p.CXErrSpread * er.Norm())
		c.CXErr[e] = clamp(p.CXErrMean*ge*jitter(er, p.CXErrSpread), 0, 0.4)
		c.CXCohZZ[e] = signedFloored(er, p.CXCohMax) * math.Sqrt(math.Min(ge, 2.5))
		c.CrossZZ[e] = signedFloored(er, p.CrossMax)
	}
	return c
}

// jitter returns an independent multiplicative wobble (half the metric's
// own spread) so coupled metrics are correlated, not identical.
func jitter(r *rng.RNG, spread float64) float64 {
	return math.Exp(spread / 2 * r.Norm())
}

// lognormal draws mean * exp(spread * N(0,1)), clamped to (0, max].
func lognormal(r *rng.RNG, mean, spread, max float64) float64 {
	if mean <= 0 {
		return 0
	}
	v := mean * math.Exp(spread*r.Norm())
	if v > max {
		v = max
	}
	return v
}

func uniformSigned(r *rng.RNG, max float64) float64 {
	if max <= 0 {
		return 0
	}
	return (2*r.Float64() - 1) * max
}

// signedFloored draws a systematic miscalibration angle: random sign,
// magnitude uniform in [max/2, max]. The floor matters twice over: with
// magnitudes uniform around zero some qubits would be accidentally well
// calibrated and the mappings landing on them nearly error-free, and with
// a wide magnitude range ESP-comparable mappings would differ wildly in
// run-time quality. The regime the paper observed is instead that every
// mapping makes comparably strong but *differently directed* systematic
// mistakes (its Figure 6 members span well under 2x in IST).
func signedFloored(r *rng.RNG, max float64) float64 {
	if max <= 0 {
		return 0
	}
	mag := max * (0.5 + 0.5*r.Float64())
	if r.Bernoulli(0.5) {
		return -mag
	}
	return mag
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MaxDrift is the largest drift scale the command line and the server
// accept for Drift. rng.Norm never returns |N| above 8.6, so Drift's
// factors exp(f*N) stay within exp(±430) at f = MaxDrift: far from
// overflow (exp(x) is finite for x < 709) and from underflow to zero (x
// > -708), so a zero rate stays zero and an infinite coherence time
// stays infinite instead of turning NaN.
const MaxDrift = 50

// Drift returns a perturbed copy of the calibration, modelling the
// temporal variation between the data the compiler saw and the machine's
// behaviour at run time (paper Section 5.3: "the behavior of the devices
// can change unpredictably at runtime"). Stochastic rates are scaled by
// exp(f*N(0,1)); coherent angles receive additive noise of the same
// relative scale. f must lie in [0, MaxDrift].
func (c *Calibration) Drift(f float64, r *rng.RNG) *Calibration {
	out := c.Clone()
	qr := r.Derive("qubit-drift")
	for q := range out.SQErr {
		out.SQErr[q] = clamp(out.SQErr[q]*math.Exp(f*qr.Norm()), 0, 0.25)
		out.Meas01[q] = clamp(out.Meas01[q]*math.Exp(f*qr.Norm()), 0, 0.45)
		out.Meas10[q] = clamp(out.Meas10[q]*math.Exp(f*qr.Norm()), 0, 0.45)
		out.T1us[q] *= math.Exp(f * qr.Norm() / 2)
		out.T2us[q] *= math.Exp(f * qr.Norm() / 2)
		if out.T2us[q] > 2*out.T1us[q] {
			out.T2us[q] = 2 * out.T1us[q]
		}
		// Coherent terms drift additively, but only where the base
		// calibration has any: a field generated at exactly zero (a
		// Clifford-clean profile like HeavyHexProfile) must stay zero or
		// drift would silently reintroduce non-Clifford physics. The
		// Norm() is drawn unconditionally so the RNG stream — and with
		// it every existing seeded campaign — is unchanged.
		if d := f * 0.05 * qr.Norm(); out.CohY[q] != 0 {
			out.CohY[q] += d
		}
		if d := f * 0.04 * qr.Norm(); out.CohZ[q] != 0 {
			out.CohZ[q] += d
		}
	}
	er := r.Derive("edge-drift")
	for _, e := range sortedEdges(out.CXErr) {
		out.CXErr[e] = clamp(out.CXErr[e]*math.Exp(f*er.Norm()), 0, 0.4)
	}
	for _, e := range sortedEdges(out.CXCohZZ) {
		if d := f * 0.08 * er.Norm(); out.CXCohZZ[e] != 0 {
			out.CXCohZZ[e] += d
		}
	}
	for _, e := range sortedEdges(out.CrossZZ) {
		if d := f * 0.02 * er.Norm(); out.CrossZZ[e] != 0 {
			out.CrossZZ[e] += d
		}
	}
	return out
}

// DriftLocal returns a perturbed copy modelling the *localized* drift a
// real device shows between calibration cycles ("A Case for
// Variability-Aware Policies...", PAPERS.md): a handful of elements move
// a lot while the rest barely move. hitQ qubits and hitE links (chosen
// pseudo-randomly from the RNG) drift strongly with relative scale
// `scale` using the same update shapes and clamps as Drift; every other
// element receives only a device-wide wobble of relative scale `jitter`.
// jitter = 0 leaves unhit elements bit-identical; any positive jitter
// moves every qubit and link.
func (c *Calibration) DriftLocal(hitQ, hitE int, scale, jitter float64, r *rng.RNG) *Calibration {
	out := c.Clone()
	n := len(out.SQErr)
	hitQubit := make([]bool, n)
	perm := r.Derive("hit-qubits").Perm(n)
	for i := 0; i < hitQ && i < n; i++ {
		hitQubit[perm[i]] = true
	}
	edges := c.Topo.Edges()
	hitEdge := make([]bool, len(edges))
	eperm := r.Derive("hit-edges").Perm(len(edges))
	for i := 0; i < hitE && i < len(edges); i++ {
		hitEdge[eperm[i]] = true
	}
	qr := r.Derive("qubit-drift")
	for q := 0; q < n; q++ {
		f := jitter
		if hitQubit[q] {
			f = scale
		}
		if f == 0 {
			continue
		}
		out.SQErr[q] = clamp(out.SQErr[q]*math.Exp(f*qr.Norm()), 0, 0.25)
		out.Meas01[q] = clamp(out.Meas01[q]*math.Exp(f*qr.Norm()), 0, 0.45)
		out.Meas10[q] = clamp(out.Meas10[q]*math.Exp(f*qr.Norm()), 0, 0.45)
		out.T1us[q] *= math.Exp(f * qr.Norm() / 2)
		out.T2us[q] *= math.Exp(f * qr.Norm() / 2)
		if out.T2us[q] > 2*out.T1us[q] {
			out.T2us[q] = 2 * out.T1us[q]
		}
		// Same zero-field gating as Drift: draw, then apply only to
		// fields the base calibration actually has.
		if d := f * 0.05 * qr.Norm(); out.CohY[q] != 0 {
			out.CohY[q] += d
		}
		if d := f * 0.04 * qr.Norm(); out.CohZ[q] != 0 {
			out.CohZ[q] += d
		}
	}
	er := r.Derive("edge-drift")
	for i, e := range edges {
		f := jitter
		if hitEdge[i] {
			f = scale
		}
		if f == 0 {
			continue
		}
		out.CXErr[e] = clamp(out.CXErr[e]*math.Exp(f*er.Norm()), 0, 0.4)
		if d := f * 0.08 * er.Norm(); out.CXCohZZ[e] != 0 {
			out.CXCohZZ[e] += d
		}
		if d := f * 0.02 * er.Norm(); out.CrossZZ[e] != 0 {
			out.CrossZZ[e] += d
		}
	}
	return out
}

// sortedEdges returns the map's keys in (A, B) order. Drift consumes RNG
// draws while walking these maps, and Go randomizes map iteration order
// per process, so an unsorted walk would assign different drift to
// different edges on every run and break seed reproducibility.
func sortedEdges(m map[Edge]float64) []Edge {
	out := make([]Edge, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
