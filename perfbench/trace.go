package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracing records a span around every call the benchmark makes into a
// layer of the program. Spans stay in memory and are written out when the
// run ends; the per-layer table is derived from them. End-to-end metrics
// are never taken with tracing on.

// span is one timed call. Parent is the index of the enclosing span, or
// -1 for a top-level span; Job groups the spans of one work unit.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// scales holds each job's host scale to nominal speed; spans of jobs
	// without one are reported raw.
	scales map[int]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), scales: map[int]float64{}} }

// setScale records job's host scale.
func (t *tracer) setScale(job int, scale float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scales[job] = scale
	t.mu.Unlock()
}

// now returns the tracer clock, or 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// layerTime is one span name's busy and self time.
type layerTime struct {
	Name  string
	Count int
	Busy  time.Duration
	Self  time.Duration
}

// layerTimes aggregates closed spans by name, each scaled by its job's
// entry in scales (1 when absent). A span's self time is its duration
// minus the part of it that its children cover; children of one span may
// overlap each other (concurrent calls), so their union is subtracted,
// not their sum.
func layerTimes(spans []span, scales map[int]float64) []layerTime {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	by := map[string]*layerTime{}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		scale, ok := scales[s.Job]
		if !ok {
			scale = 1
		}
		d := time.Duration(s.End - s.Start)
		self := d - coveredBy(spans, children[i], s.Start, s.End)
		lt.Count++
		lt.Busy += time.Duration(float64(d) * scale)
		lt.Self += time.Duration(float64(self) * scale)
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredBy returns how much of [lo, hi) the union of the given spans
// covers.
func coveredBy(spans []span, idx []int, lo, hi int64) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// topLevelCoverage is the share of [lo, hi) covered by top-level spans.
func topLevelCoverage(spans []span, lo, hi int64) float64 {
	var top []int
	for i, s := range spans {
		if s.Parent < 0 && s.End >= s.Start {
			top = append(top, i)
		}
	}
	return frac(float64(coveredBy(spans, top, lo, hi)), float64(hi-lo))
}

// busy returns the busy time of the named layer in layerTimes output.
func busy(lts []layerTime, name string) time.Duration {
	for _, lt := range lts {
		if lt.Name == name {
			return lt.Busy
		}
	}
	return 0
}

// writeTrace writes the spans and the per-layer table of one traced run
// under dir.
func writeTrace(dir, workload string, seed uint64, spans []span, lts []layerTime, counters map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%d", workload, seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", data, 0o644); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# per-layer table, workload %s, seed %d\n", workload, seed)
	fmt.Fprintf(&sb, "%-28s %8s %12s %12s\n", "span", "calls", "busy_ms", "self_ms")
	for _, lt := range lts {
		fmt.Fprintf(&sb, "%-28s %8d %12.3f %12.3f\n", lt.Name, lt.Count, ms(lt.Busy), ms(lt.Self))
	}
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(&sb, "\n%-34s %s\n", "metric", "value")
	for _, k := range names {
		fmt.Fprintf(&sb, "%-34s %.6g\n", k, counters[k])
	}
	return os.WriteFile(base+".layers.txt", []byte(sb.String()), 0o644)
}

// count returns the number of calls of the named layer in layerTimes
// output.
func count(lts []layerTime, name string) int {
	for _, lt := range lts {
		if lt.Name == name {
			return lt.Count
		}
	}
	return 0
}
