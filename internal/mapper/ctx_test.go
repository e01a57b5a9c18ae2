package mapper

import (
	"context"
	"errors"
	"testing"

	"edm/internal/device"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// TestTopKCtxBitIdenticalToTopK pins that the context-threaded compile
// path returns the same executables as TopK, on a memo compiler and on
// a Tracking.
func TestTopKCtxBitIdenticalToTopK(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(21))
	w := workloads.BV("110011")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cached := NewMemoCompiler(cal, nil)
	want, err := cached.TopK(w.Circuit, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.TopKCtx(ctx, w.Circuit, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("member counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("member %d: TopKCtx returned a different executable than TopK", i)
		}
	}

	tr := NewTracking(cal)
	wantTr, err := tr.TopK(w.Circuit, 4)
	if err != nil {
		t.Fatal(err)
	}
	gotTr, err := tr.TopKCtx(ctx, w.Circuit, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotTr {
		if gotTr[i] != wantTr[i] {
			t.Fatalf("tracking member %d differs", i)
		}
	}
	if s := tr.PoolStats(); s.Misses != 1 {
		t.Fatalf("tracking pool misses = %d, want exactly 1 build", s.Misses)
	}
}

// TestTopKCtxCancelled: an expired context surfaces as an error, not a
// panic, and does not poison the ensemble cache for later callers.
func TestTopKCtxCancelled(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(22))
	comp := NewMemoCompiler(cal, nil)
	w := workloads.QAOA(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := comp.TopKCtx(ctx, w.Circuit, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled TopKCtx err = %v, want Canceled", err)
	}
	// The cache must still serve the circuit afterwards.
	execs, err := comp.TopKCtx(context.Background(), w.Circuit, 4)
	if err != nil || len(execs) != 4 {
		t.Fatalf("post-cancel TopKCtx = %d execs, %v", len(execs), err)
	}

	tr := NewTracking(cal)
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := tr.TopKCtx(ctx2, w.Circuit, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Tracking.TopKCtx err = %v, want Canceled", err)
	}
	if _, err := tr.TopKCtx(context.Background(), w.Circuit, 2); err != nil {
		t.Fatalf("post-cancel Tracking.TopKCtx: %v", err)
	}
	if _, err := tr.TopKCtx(context.Background(), w.Circuit, 0); err == nil {
		t.Fatal("k=0 must error")
	}
}
