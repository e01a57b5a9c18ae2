package main

import (
	"runtime"
	"sort"
	"time"
)

// sliceGap is the least work between two reference slices: slices are
// about 25 ms, so the reference costs under a tenth of the measured time.
const sliceGap = 300 * time.Millisecond

// meter times the work units of one phase and reports them at nominal
// host speed. At an idle point after a unit it takes a reference slice
// once sliceGap of work has passed since the last one. Throughput uses
// the phase's host factor, the mean over its slices; a job's latency uses
// the factor interpolated at the job's midpoint between the slices around
// it. On the reference host a per-unit factor gave throughput spreads no
// smaller than the phase mean, while it cut serve's p95 spread from 7%
// to 2% over six seeds.
//
// Slices always run at the machine's full width. The host's vCPUs are
// loaded unevenly by other tenants, and a one-thread slice lands on one
// of them at random: on the reference host its factor was uncorrelated
// with the speed of GOMAXPROCS=1 work (-0.11), while a full-width slice
// tracked it (0.68).
type meter struct {
	ref    *hostRef // nil: no normalization (tests)
	last   time.Time
	slices []refSlice
	raw    []time.Duration
}

type refSlice struct {
	at     time.Time
	factor float64
}

func newMeter(ref *hostRef) (*meter, error) {
	m := &meter{ref: ref}
	return m, m.slice()
}

// slice takes a reference slice now; call it only while the program is
// idle.
func (m *meter) slice() error {
	f := 1.0
	if m.ref != nil {
		var err error
		if f, err = m.ref.factor(runtime.NumCPU()); err != nil {
			return err
		}
	}
	m.last = time.Now()
	m.slices = append(m.slices, refSlice{at: m.last, factor: f})
	return nil
}

// unit runs f as one work unit and returns when it started and ended.
// The program must be idle when f returns, since a slice may follow.
func (m *meter) unit(f func()) (start, end time.Time, err error) {
	start = time.Now()
	f()
	end = time.Now()
	m.raw = append(m.raw, end.Sub(start))
	if end.Sub(m.last) >= sliceGap {
		err = m.slice()
	}
	return start, end, err
}

// finish takes the closing slice and returns the phase's host factor.
func (m *meter) finish() (float64, error) {
	if err := m.slice(); err != nil {
		return 0, err
	}
	var s float64
	for _, sl := range m.slices {
		s += sl.factor
	}
	return s / float64(len(m.slices)), nil
}

// total returns the summed raw time of every unit.
func (m *meter) total() time.Duration {
	var t time.Duration
	for _, d := range m.raw {
		t += d
	}
	return t
}

// latency returns the raw and normalized milliseconds of a job that ran
// from start to end; call it after finish.
func (m *meter) latency(start, end time.Time) (raw, norm float64) {
	d := end.Sub(start)
	return ms(d), ms(normalize(d, interpolate(m.slices, start.Add(d/2))))
}

// interpolate returns the host factor at t: linear between the slices
// around it, flat before the first and after the last.
func interpolate(slices []refSlice, t time.Time) float64 {
	j := sort.Search(len(slices), func(k int) bool { return !slices[k].at.Before(t) })
	switch {
	case j == 0:
		return slices[0].factor
	case j == len(slices):
		return slices[len(slices)-1].factor
	}
	a, b := slices[j-1], slices[j]
	w := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.factor + w*(b.factor-a.factor)
}

// phase is what one width's pass measured.
type phase struct {
	trials      int           // trials requested and received
	lat, rawLat []float64     // normalized and raw latency of every answered job, ms
	raw         time.Duration // raw measured time
	factor      float64       // host factor
}

// addJob records one answered job's latency.
func (p *phase) addJob(m *meter, start, end time.Time) {
	raw, norm := m.latency(start, end)
	p.rawLat = append(p.rawLat, raw)
	p.lat = append(p.lat, norm)
}

// rate returns n per normalized and per raw second of the phase.
func (p *phase) rate(n int) (norm, raw float64) {
	return float64(n) / normalize(p.raw, p.factor).Seconds(), float64(n) / p.raw.Seconds()
}

// timing sets the timed end-to-end metrics of the run's phases, the
// measured set-up aside: throughput at GOMAXPROCS=1 from p1, and
// throughput and job latency at full width from pn.
func (r *report) timing(p1, pn *phase) {
	r.norm["trials_per_s_1p"], r.raw["trials_per_s_1p"] = p1.rate(p1.trials)
	r.norm["trials_per_s"], r.raw["trials_per_s"] = pn.rate(pn.trials)
	r.norm["jobs_per_s"], r.raw["jobs_per_s"] = pn.rate(len(pn.rawLat))
	r.factor["trials_per_s_1p"] = p1.factor
	r.factor["trials_per_s"], r.factor["jobs_per_s"] = pn.factor, pn.factor
	for name, q := range map[string]float64{"job_p50_ms": 0.5, "job_p95_ms": 0.95} {
		r.norm[name], r.raw[name], r.factor[name] = quantile(pn.lat, q), quantile(pn.rawLat, q), pn.factor
	}
}
