package main

import (
	"testing"
	"time"
)

func TestRefWorkAllocatesNothing(t *testing.T) {
	st := newRefState(newRefTable())
	var sink uint64
	allocs := testing.AllocsPerRun(10, func() { sink += refWork(st, 7, 1000) })
	if allocs != 0 {
		t.Fatalf("refWork allocated %v times per run", allocs)
	}
	_ = sink
}

func TestNormalizeScalesByReferenceRate(t *testing.T) {
	// A host running the reference at half the nominal rate is slowed
	// down twofold: 3 s of raw work is 1.5 s at nominal speed.
	f := hostFactor(nominalRefRate / 2)
	if f != 0.5 {
		t.Fatalf("hostFactor(nominal/2) = %v, want 0.5", f)
	}
	if got := normalize(3*time.Second, f); got != 1500*time.Millisecond {
		t.Fatalf("normalize(3s, 0.5) = %v, want 1.5s", got)
	}
	p := phase{trials: 3000, raw: 3 * time.Second, factor: f}
	norm, raw := p.rate(p.trials)
	if norm != 2000 || raw != 1000 {
		t.Fatalf("rate = %v normalized, %v raw; want 2000, 1000", norm, raw)
	}
}

func TestMeterWithoutReferenceIsRaw(t *testing.T) {
	m, err := newMeter(nil)
	if err != nil {
		t.Fatal(err)
	}
	start, end, err := m.unit(func() { time.Sleep(time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.finish()
	if err != nil || f != 1 {
		t.Fatalf("finish = %v, %v; want factor 1", f, err)
	}
	if m.total() < time.Millisecond {
		t.Fatalf("total %v shorter than the unit", m.total())
	}
	if raw, norm := m.latency(start, end); raw != norm || raw < 1 {
		t.Fatalf("latency = %v raw, %v normalized; want equal and at least 1 ms", raw, norm)
	}
}

func TestInterpolateBetweenSlices(t *testing.T) {
	t0 := time.Unix(1000, 0)
	slices := []refSlice{{t0, 1}, {t0.Add(10 * time.Second), 2}}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{{-time.Second, 1}, {0, 1}, {5 * time.Second, 1.5}, {10 * time.Second, 2}, {11 * time.Second, 2}} {
		if got := interpolate(slices, t0.Add(c.at)); got != c.want {
			t.Errorf("interpolate at %v = %v, want %v", c.at, got, c.want)
		}
	}
}
