// Command perfbench is the repository's benchmark. It drives one of three
// workloads — campaign, serve, replay — through the public entry points of
// the experiment, mapper, core, backend and serve packages, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of standard
// output. NOTES.md explains the workloads and the host normalization.
//
// Usage:
//
//	perfbench -workload campaign|serve|replay -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricUnits gives every metric's unit.
var metricUnits = map[string]string{
	"setup_s":          "s",
	"trials_per_s":     "trials/s",
	"trials_per_s_1p":  "trials/s",
	"jobs_per_s":       "jobs/s",
	"job_p50_ms":       "ms",
	"job_p95_ms":       "ms",
	"retained_heap_mb": "MiB",
	"ist_gain":         "x",

	"experiment.round_ms":             "ms",
	"experiment.round_cache_hit_frac": "frac",
	"mapper.topk_ms":                  "ms",
	"mapper.topk_calls":               "count",
	"mapper.topk_cache_hit_frac":      "frac",
	"mapper.pool_hit_frac":            "frac",
	"mapper.recompile_survival":       "frac",
	"mapper.recompile_full":           "count",
	"core.ensemble_ms":                "ms",
	"backend.run_ms":                  "ms",
	"backend.trials":                  "count",
	"backend.plans_built":             "count",
	"backend.plan_build_ms":           "ms",
	"backend.divergent_frac":          "frac",
	"backend.mean_batch":              "trials",
	"backend.lane_clones_per_trial":   "count",
	"backend.unit_steals":             "count",
	"backend.us_per_divergent_trial":  "us",
	"backend.prog_cache_hit_frac":     "frac",
	"backend.run_cache_hit_frac":      "frac",
	"backend.run_cache_entries":       "count",
	"backend.plan_heap_mb":            "MiB",
	"serve.tier_hit_frac":             "frac",
	"serve.tier_wait_frac":            "frac",
	"serve.hit_p50_ms":                "ms",
	"serve.fresh_p50_ms":              "ms",
	"serve.after_advance_p50_ms":      "ms",
	"serve.advance_ms":                "ms",
	"serve.rejected":                  "count",
	"host.ref_rate":                   "Miter/s",
	"trace.coverage":                  "frac",
	"trace.overhead":                  "x",
}

var endToEnd = []string{
	"setup_s", "trials_per_s", "trials_per_s_1p", "jobs_per_s",
	"job_p50_ms", "job_p95_ms", "retained_heap_mb", "ist_gain",
}

// timed lists the end-to-end metrics taken in host time, which are
// normalized and printed beside their raw value.
var timed = map[string]bool{
	"setup_s": true, "trials_per_s": true, "trials_per_s_1p": true,
	"jobs_per_s": true, "job_p50_ms": true, "job_p95_ms": true,
}

// env is what a workload run gets from the command line and the host.
type env struct {
	seed    uint64
	seconds int
	nproc   int
	ref     *hostRef
	tr      *tracer // nil in untraced runs
}

// report is what one workload run measured. norm holds end-to-end values
// at nominal host speed, raw their unnormalized counterparts and factor
// the host factor each was normalized with; layer holds per-layer
// metrics, filled only in traced runs.
type report struct {
	attempted, failed int
	problems          []string
	norm, raw, factor map[string]float64
	layer             map[string]float64
}

func newReport() *report {
	return &report{
		norm: map[string]float64{}, raw: map[string]float64{},
		factor: map[string]float64{}, layer: map[string]float64{},
	}
}

// fail counts one failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workload runs one measured phase. primary names the end-to-end metric
// trace.overhead compares; setup runs one cold set-up in a fresh process,
// and setups is how many a run times: setup_s is their median.
type workload struct {
	run     func(e *env) (*report, error)
	setup   func(seed uint64) error
	setups  int
	primary string
}

var workloadsByName = map[string]workload{
	"campaign": {run: runCampaign, setup: setupCampaign, setups: 5, primary: "trials_per_s"},
	"replay":   {run: runReplay, setup: setupReplayChild, setups: 5, primary: "trials_per_s"},
	"serve":    {run: runServe, setup: setupServe, setups: 3, primary: "jobs_per_s"},
}

func main() {
	name := flag.String("workload", "", "workload: campaign, serve or replay")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for a traced run that prints per-layer metrics")
	refHelper := flag.Bool("refhelper", false, "internal: run the host reference helper")
	setupOnly := flag.Bool("setup", false, "internal: run one cold set-up of -workload and exit")
	flag.Parse()

	if *refHelper {
		if err := refHelperMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload campaign|serve|replay -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if *setupOnly {
		if err := wl.setup(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "set-up:", err)
			os.Exit(1)
		}
		return
	}
	if err := bench(wl, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func bench(wl workload, name string, seed uint64, seconds int, traced bool) error {
	ref, err := startHostRef()
	if err != nil {
		return err
	}
	defer ref.close()
	e := &env{seed: seed, seconds: seconds, nproc: runtime.NumCPU(), ref: ref}

	rep, err := wl.run(e)
	if err != nil {
		return err
	}
	var out map[string]float64
	if traced {
		e.tr = newTracer()
		trep, err := wl.run(e)
		if err != nil {
			return err
		}
		trep.layer["trace.overhead"] = frac(rep.norm[wl.primary], trep.norm[wl.primary])
		trep.layer["host.ref_rate"] = ref.meanRate() / 1e6
		if err := writeTrace(".bench_build/trace", name, seed, e.tr.spans, layerTimes(e.tr.spans, e.tr.scales), trep.layer); err != nil {
			return err
		}
		trep.attempted += rep.attempted
		trep.failed += rep.failed
		trep.problems = append(rep.problems, trep.problems...)
		rep, out = trep, trep.layer
	} else {
		setups, raws, f, err := timeSetups(name, seed, wl.setups, e)
		if err != nil {
			return err
		}
		rep.norm["setup_s"], rep.raw["setup_s"], rep.factor["setup_s"] = median(setups), median(raws), f
		rep.attempted += wl.setups
		out = rep.norm
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	printTable(os.Stdout, rep, out)
	return printResult(rep, out, traced)
}

// timeSetups times n cold set-ups, each in a fresh process so package
// initialization counts, between reference slices. It returns their
// normalized and raw seconds and the host factor.
func timeSetups(name string, seed uint64, n int, e *env) (norm, raw []float64, f float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, 0, err
	}
	m, err := newMeter(e.ref)
	if err != nil {
		return nil, nil, 0, err
	}
	var raws []time.Duration
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup", "-workload", name, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		var runErr error
		start, end, err := m.unit(func() { runErr = cmd.Run() })
		if err != nil {
			return nil, nil, 0, err
		}
		if runErr != nil {
			return nil, nil, 0, fmt.Errorf("set-up %d: %w", i, runErr)
		}
		raws = append(raws, end.Sub(start))
	}
	if f, err = m.finish(); err != nil {
		return nil, nil, 0, err
	}
	for _, d := range raws {
		raw = append(raw, d.Seconds())
		norm = append(norm, normalize(d, f).Seconds())
	}
	return norm, raw, f, nil
}

// printTable prints every reported metric, with the raw value and the
// reference rate it was normalized with beside each timed one.
func printTable(f *os.File, rep *report, out map[string]float64) {
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%-34s %14s %-9s %14s %s\n", "metric", "value", "unit", "raw", "host.ref_rate")
	for _, k := range names {
		if timed[k] {
			fmt.Fprintf(f, "%-34s %14.6g %-9s %14.6g %.4g Miter/s\n", k, out[k], metricUnits[k], rep.raw[k], rep.factor[k]*nominalRefRate/1e6)
		} else {
			fmt.Fprintf(f, "%-34s %14.6g %-9s\n", k, out[k], metricUnits[k])
		}
	}
	fmt.Fprintf(f, "operations attempted %d, failed %d\n", rep.attempted, rep.failed)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the result line. Every metric of the run's kind must
// be present and finite.
func printResult(rep *report, out map[string]float64, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	metrics := map[string]metricOut{}
	for _, k := range want {
		v, ok := out[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite (%v)", k, v)
		}
		metrics[k] = metricOut{Value: v, Unit: metricUnits[k]}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// heapMiB returns the live heap after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
