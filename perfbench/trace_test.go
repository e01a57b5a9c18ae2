package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	// cell [0,100) has children [10,30) and [20,50), which overlap, and
	// [60,70), whose own child [62,65) must not count against the cell.
	spans := []span{
		{Name: "cell", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a", Start: 20, End: 50, Parent: 0},
		{Name: "b", Start: 60, End: 70, Parent: 0},
		{Name: "c", Start: 62, End: 65, Parent: 3},
		{Name: "cell", Start: 200, End: 250, Parent: -1, Job: 1},
	}
	got := map[string]layerTime{}
	for _, lt := range layerTimes(spans, map[int]float64{1: 2}) {
		got[lt.Name] = lt
	}
	want := map[string]layerTime{
		// The second cell has no children and its job's scale is 2.
		"cell": {Name: "cell", Count: 2, Busy: 100 + 100, Self: (100 - 50) + 100},
		"a":    {Name: "a", Count: 2, Busy: 50, Self: 50},
		"b":    {Name: "b", Count: 1, Busy: 10, Self: 7},
		"c":    {Name: "c", Count: 1, Busy: 3, Self: 3},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if c := topLevelCoverage(spans, 0, 400); c != 150.0/400 {
		t.Errorf("coverage %v, want %v", c, 150.0/400)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", -1, 0)
	tr.end(sp)
	tr.setScale(0, 2)
	if sp != -1 || tr.now() != 0 {
		t.Fatalf("nil tracer: span %d, now %v", sp, time.Duration(tr.now()))
	}
}
