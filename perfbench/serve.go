package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"edm/internal/backend"
	"edm/internal/bitstr"
	"edm/internal/rng"
	"edm/internal/serve"
	"edm/internal/workloads"
)

// The serve workload: edmd under a closed loop. Callers of edmd each wait
// for their reply, so the load is closed: nproc clients, each with one
// keep-alive connection to an in-process serve.Server on loopback. A
// seeded generator draws jobs from a catalog of the nine named workloads
// and inline circuits with skewed popularity; within a calibration window
// about 30% of jobs repeat an earlier job exactly, and every
// serveJobsPerWindow jobs all clients meet at a barrier where the benchmark
// advances the window. It is the only workload that runs the HTTP/JSON
// layer, the result Tier, admission and the drift recompile ladder.

const (
	serveJobsPerWindow = 60   // jobs between window advances
	serveRepeats       = 18   // jobs per window that repeat an earlier job of the window
	serveChunk         = 15   // jobs between idle points
	serveColdTrials    = 1024 // trials of each set-up cold job
)

// servePopularity is the catalog in decreasing popularity, each entry
// with its trial budget: the named Table-1 workloads and inline circuits
// of 5–11 qubits. The order and budgets are fixed so that every seed
// loads the service with the same mix, and they are chosen so that the
// job percentiles fall inside groups of similar jobs, not on the edge
// between two: p50 among the bv-6, qaoa-5 and adder jobs, p95 among the
// heavy inline ones. The seed draws the inline circuits' gates,
// the job order, which jobs repeat and every job seed.
var servePopularity = []struct {
	name   string
	trials int
}{
	{"bv-6", 2048}, {"inline-9", 2048}, {"qaoa-5", 3072}, {"adder", 3072},
	{"greycode-6", 2048}, {"inline-5", 3072}, {"fredkin", 3072}, {"qaoa-6", 2048},
	{"inline-6", 2048}, {"bv-7", 2048}, {"inline-7", 2048}, {"qaoa-7", 2048},
	{"inline-8", 1024}, {"decode24", 1024}, {"inline-10", 1024}, {"inline-11", 1024},
}

// serveCatalog is the generated input of one seed: the circuits jobs draw
// from, in servePopularity order, with their trial budgets.
type serveCatalog struct {
	specs []serve.JobSpec
	named []workloads.Workload // per entry; zero Workload for inline circuits
}

func newServeCatalog(r *rng.RNG) *serveCatalog {
	c := &serveCatalog{}
	for i, e := range servePopularity {
		spec := serve.JobSpec{Workload: e.name, Trials: e.trials}
		var w workloads.Workload
		if n, ok := strings.CutPrefix(e.name, "inline-"); ok {
			q, _ := strconv.Atoi(n)
			spec = serve.JobSpec{Circuit: inlineCircuit(r.DeriveN("inline", i), q), Trials: e.trials}
		} else {
			w, _ = workloads.ByName(e.name)
		}
		c.specs = append(c.specs, spec)
		c.named = append(c.named, w)
	}
	return c
}

// inlineCircuit draws an n-qubit mirror circuit: Hadamards, random Z
// rotations (non-Clifford, so the statevector engine runs it) and
// a chain of nearest-neighbour CX gates, followed by their
// inverse, then a measurement of every qubit. The ideal output is all
// zeros, so answers are peaked as the named workloads' are.
func inlineCircuit(r *rng.RNG, n int) string {
	var fwd []string
	for q := 0; q < n; q++ {
		fwd = append(fwd, fmt.Sprintf("h %d", q))
	}
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < n; q++ {
			fwd = append(fwd, fmt.Sprintf("rz(%.4f) %d", 0.1+2*r.Float64(), q))
		}
		for q := layer; q+1 < n; q += 2 {
			fwd = append(fwd, fmt.Sprintf("cx %d %d", q, q+1))
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "qubits %d\ncbits %d\n", n, n)
	for _, g := range fwd {
		sb.WriteString(g + "\n")
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		g := fwd[i]
		if rest, ok := strings.CutPrefix(g, "rz("); ok {
			g = "rz(-" + rest
		}
		sb.WriteString(g + "\n")
	}
	for q := 0; q < n; q++ {
		fmt.Fprintf(&sb, "measure %d -> %d\n", q, q)
	}
	return sb.String()
}

// serveJob is one generated request. repeatOf is the index of the earlier
// job of the same window it repeats, or -1.
type serveJob struct {
	spec     serve.JobSpec
	repeatOf int
}

// serveQuotas splits a window's fresh jobs over the catalog by Zipf
// weights (largest remainder), so every window has the same mix.
func serveQuotas(entries, fresh int) []int {
	w := make([]float64, entries)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), 1.1)
		sum += w[i]
	}
	q := make([]int, entries)
	rem := make([]float64, entries)
	left := fresh
	for i := range w {
		x := w[i] / sum * float64(fresh)
		q[i] = int(x)
		rem[i] = x - float64(q[i])
		left -= q[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		q[best]++
		rem[best] = -1
	}
	return q
}

var servePolicies = []string{"edm", "wedm", "best", "edm"}

// serveJobs draws windows of serveJobsPerWindow jobs: the fresh jobs of
// every window follow serveQuotas, with policies assigned in rotation and
// a fresh seed each, in shuffled order; then
// serveRepeats exact repeats of earlier jobs are inserted after their
// originals.
func serveJobs(c *serveCatalog, r *rng.RNG, windows int) [][]serveJob {
	quotas := serveQuotas(len(c.specs), serveJobsPerWindow-serveRepeats)
	out := make([][]serveJob, windows)
	for w := range out {
		var fresh []serve.JobSpec
		k := 0
		for i, n := range quotas {
			for ; n > 0; n-- {
				spec := c.specs[i]
				spec.Policy = servePolicies[k%len(servePolicies)]
				k++
				fresh = append(fresh, spec)
			}
		}
		for i, j := range r.Perm(len(fresh)) {
			fresh[i], fresh[j] = fresh[j], fresh[i]
		}
		jobs := make([]serveJob, 0, serveJobsPerWindow)
		for _, spec := range fresh {
			spec.Seed = r.Uint64()
			jobs = append(jobs, serveJob{spec: spec, repeatOf: -1})
		}
		for n := 0; n < serveRepeats; n++ {
			orig := r.Intn(len(jobs))
			if jobs[orig].repeatOf >= 0 {
				orig = jobs[orig].repeatOf
			}
			at := orig + 1 + r.Intn(len(jobs)-orig)
			jobs = append(jobs, serveJob{})
			copy(jobs[at+1:], jobs[at:])
			for i := range jobs {
				if jobs[i].repeatOf >= at {
					jobs[i].repeatOf++
				}
			}
			jobs[at] = serveJob{spec: jobs[orig].spec, repeatOf: orig}
		}
		out[w] = jobs
	}
	return out
}

// serveInstance is a running service on loopback.
type serveInstance struct {
	svc    *serve.Service
	url    string
	stop   context.CancelFunc
	done   chan error
	client []*http.Client
}

func startServe(clients int) (*serveInstance, error) {
	svc, err := serve.NewService(serve.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve.NewServer(svc).ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		stop()
		return nil, fmt.Errorf("start server: %w", err)
	}
	in := &serveInstance{svc: svc, url: "http://" + addr, stop: stop, done: done}
	for i := 0; i < clients; i++ {
		in.client = append(in.client, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	}
	return in, nil
}

// close stops the server and waits for it to drain.
func (in *serveInstance) close() error {
	for _, c := range in.client {
		c.CloseIdleConnections()
	}
	in.stop()
	return <-in.done
}

// post sends one job and returns the status, the body and the latency
// from sending the request to reading the last byte.
func (in *serveInstance) post(client int, spec *serve.JobSpec) (int, []byte, time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := in.client[client].Post(in.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

// advance moves the service to the next window through the HTTP API.
func (in *serveInstance) advance() error {
	resp, err := in.client[0].Post(in.url+"/v1/advance", "application/json", nil)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("advance: status %d", resp.StatusCode)
	}
	return err
}

// checkJob checks one answer: status 200 and merged probabilities that
// sum to 1 within 1e-9. It returns the decoded result.
func checkJob(status int, body []byte) (*serve.JobResult, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	var res serve.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	var sum float64
	for _, o := range res.Merged {
		sum += o.P
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("merged probabilities sum to %.12g", sum)
	}
	return &res, nil
}

// coldJobs is the set-up's work after the service starts: one cold job
// per catalog circuit. Each named workload runs twice, as EDM and as the
// single-best baseline with the same seed, and the geometric mean of
// their IST ratios is the Fig 11 bar at serving scale. The cold jobs'
// seeds are fixed, like the device, so the bar is exact: a change that
// alters results moves it.
func coldJobs(in *serveInstance, c *serveCatalog) (gain float64, err error) {
	var gains []float64
	r := rng.New(calSeed).Derive("serve-cold")
	for i, spec := range c.specs {
		spec.Trials = serveColdTrials
		spec.Seed = r.DeriveN("cold", i).Uint64()
		named := c.named[i].Circuit != nil
		policies := []string{"edm"}
		if named {
			policies = append(policies, "best")
		}
		var ists []float64
		for _, p := range policies {
			s := spec
			s.Policy = p
			status, body, _, err := in.post(0, &s)
			if err != nil {
				return 0, err
			}
			res, err := checkJob(status, body)
			if err != nil {
				return 0, fmt.Errorf("cold job %d (%s): %w", i, p, err)
			}
			if named {
				ists = append(ists, resultIST(res, c.named[i].Correct))
			}
		}
		if named {
			g := frac(ists[0], ists[1])
			if !(g > 0) || math.IsInf(g, 0) {
				return 0, fmt.Errorf("cold job %d: IST ratio %v", i, g)
			}
			gains = append(gains, g)
		}
	}
	return geomean(gains), nil
}

// resultIST is dist.IST on a wire result: the correct outcome's
// probability over the strongest wrong outcome's.
func resultIST(res *serve.JobResult, correct bitstr.BitString) float64 {
	var pc, pw float64
	want := correct.String()
	for _, o := range res.Merged {
		if o.Outcome == want {
			pc = o.P
		} else if o.P > pw {
			pw = o.P
		}
	}
	if pw == 0 {
		return math.Inf(1)
	}
	return pc / pw
}

// serveSeeds derives the catalog and job streams from the workload seed.
func serveSeeds(seed uint64) (catalog, jobs *rng.RNG) {
	root := rng.New(seed).Derive("serve")
	return root.Derive("catalog"), root.Derive("jobs")
}

func setupServe(seed uint64) error {
	cr, _ := serveSeeds(seed)
	in, err := startServe(1)
	if err != nil {
		return err
	}
	_, err = coldJobs(in, newServeCatalog(cr))
	if cerr := in.close(); err == nil {
		err = cerr
	}
	return err
}

// servePhase is one closed-loop pass over the job windows.
type servePhase struct {
	phase
	jobs    int
	kind    map[string][]float64 // normalized latency by job outcome, ms
	advance []float64            // raw advance time, ms
	gain    float64
	runs    [2]uint64 // run-cache hits and lookups, summed over windows
	last    serve.Metrics
	heap    float64 // retained heap, MiB
	t0, t1  int64   // tracer time at the start and end of the windows
}

// runServePhase starts a service, warms it with the cold jobs and drives
// windows of jobs through clients connections at the given width.
func runServePhase(e *env, rep *report, width, clients, windows int) (*servePhase, error) {
	prev := runtime.GOMAXPROCS(width)
	defer runtime.GOMAXPROCS(prev)
	cr, jr := serveSeeds(e.seed)
	cat := newServeCatalog(cr)
	plan := serveJobs(cat, jr, windows)
	in, err := startServe(clients)
	if err != nil {
		return nil, err
	}
	defer in.close()
	ph := &servePhase{kind: map[string][]float64{}}
	if ph.gain, err = coldJobs(in, cat); err != nil {
		return nil, err
	}
	m, err := newMeter(e.ref)
	if err != nil {
		return nil, err
	}
	ph.t0 = e.tr.now()
	type answer struct {
		start, end time.Time
		kind       string
		trials     int
		ok         bool
	}
	var answers []answer
	for w, jobs := range plan {
		if w > 0 {
			before := in.svc.Snapshot(false).Runs
			ph.runs[0] += before.Hits
			ph.runs[1] += before.Hits + before.Misses
			sp := e.tr.begin("serve.advance", -1, -1)
			var advErr error
			start, end, err := m.unit(func() { advErr = in.advance() })
			e.tr.end(sp)
			if err != nil {
				return nil, err
			}
			if advErr != nil {
				return nil, advErr
			}
			ph.advance = append(ph.advance, ms(end.Sub(start)))
		}
		var (
			mu    sync.Mutex
			first = map[int][]byte{} // job index -> first answer bytes
		)
		base := len(answers)
		answers = append(answers, make([]answer, len(jobs))...)
		// Clients drain at the end of every chunk, an idle point where
		// the meter may take a reference slice.
		for lo := 0; lo < len(jobs); lo += serveChunk {
			hi := min(lo+serveChunk, len(jobs))
			_, _, err := m.unit(func() {
				next := make(chan int)
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := range next {
							j := &jobs[i]
							spec := j.spec
							sp := e.tr.begin("serve.request", -1, base+i)
							status, body, lat, err := in.post(c, &spec)
							e.tr.end(sp)
							end := time.Now()
							a := answer{start: end.Add(-lat), end: end, kind: "fresh", trials: spec.Trials}
							switch {
							case j.repeatOf >= 0:
								a.kind = "hit"
							case w > 0 && i < clients:
								a.kind = "after_advance"
							}
							if err == nil {
								_, err = checkJob(status, body)
							}
							key := i
							if j.repeatOf >= 0 {
								key = j.repeatOf
							}
							mu.Lock()
							if err == nil {
								if prev, seen := first[key]; !seen {
									first[key] = body
								} else if !bytes.Equal(prev, body) {
									err = fmt.Errorf("repeat of job %d answered differently", key)
								}
							}
							if err != nil {
								rep.fail("serve window %d job %d: %v", w, i, err)
							}
							mu.Unlock()
							a.ok = err == nil
							answers[base+i] = a
						}
					}(c)
				}
				for i := lo; i < hi; i++ {
					next <- i
				}
				close(next)
				wg.Wait()
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if ph.factor, err = m.finish(); err != nil {
		return nil, err
	}
	for i, a := range answers {
		e.tr.setScale(i, ph.factor)
		ph.jobs++
		if !a.ok {
			continue
		}
		ph.trials += a.trials
		ph.addJob(m, a.start, a.end)
		ph.kind[a.kind] = append(ph.kind[a.kind], ph.lat[len(ph.lat)-1])
	}
	ph.t1 = e.tr.now()
	ph.raw = m.total()
	ph.last = in.svc.Snapshot(false)
	ph.runs[0] += ph.last.Runs.Hits
	ph.runs[1] += ph.last.Runs.Hits + ph.last.Runs.Misses
	ph.heap = heapMiB() // the deferred close keeps the service reachable
	return ph, nil
}

func runServe(e *env) (*report, error) {
	rep := newReport()
	eng0 := backend.EngineStatsSnapshot()
	// About 2 s of work per window at nproc and 3 s at GOMAXPROCS=1 on the
	// reference host.
	p1, err := runServePhase(e, rep, 1, 1, max(1, e.seconds*3/20))
	if err != nil {
		return nil, err
	}
	pn, err := runServePhase(e, rep, e.nproc, e.nproc, max(2, e.seconds/2))
	if err != nil {
		return nil, err
	}
	eng1 := backend.EngineStatsSnapshot()
	rep.attempted = p1.jobs + pn.jobs
	if p1.gain != pn.gain {
		rep.fail("serve cold-job IST gain differs between widths: %v vs %v", p1.gain, pn.gain)
	}

	rep.timing(&p1.phase, &pn.phase)
	rep.norm["retained_heap_mb"] = pn.heap
	rep.norm["ist_gain"] = pn.gain

	if e.tr != nil {
		l := rep.layer
		tier := pn.last.Tier
		lookups := float64(tier.Hits + tier.Misses)
		l["serve.tier_hit_frac"] = frac(float64(tier.Hits), lookups)
		l["serve.tier_wait_frac"] = frac(float64(tier.Waits), lookups)
		l["serve.hit_p50_ms"] = quantile(pn.kind["hit"], 0.5)
		l["serve.fresh_p50_ms"] = quantile(pn.kind["fresh"], 0.5)
		l["serve.after_advance_p50_ms"] = quantile(pn.kind["after_advance"], 0.5)
		l["serve.advance_ms"] = quantile(pn.advance, 0.5) * pn.factor
		l["serve.rejected"] = float64(pn.last.Admission.Rejected)
		pools := pn.last.Pools
		l["mapper.pool_hit_frac"] = frac(float64(pools.Hits), float64(pools.Hits+pools.Misses))
		l["mapper.recompile_survival"] = pn.last.Recompile.Survival()
		l["mapper.recompile_full"] = float64(pn.last.Recompile.FullRebuilds)
		l["backend.run_cache_hit_frac"] = frac(float64(pn.runs[0]), float64(pn.runs[1]))
		l["backend.run_cache_entries"] = float64(pn.last.Runs.Entries)
		l["backend.trials"] = float64(pn.trials)
		lts := layerTimes(e.tr.spans, e.tr.scales)
		engineLayers(l, eng0, eng1, busy(lts, "serve.request"))
		l["trace.coverage"] = topLevelCoverage(e.tr.spans, pn.t0, pn.t1)
		fillLayers(l)
	}
	return rep, nil
}
