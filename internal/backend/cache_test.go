package backend

import (
	"fmt"
	"testing"

	"edm/internal/circuit"
	"edm/internal/rng"
)

func TestProgramCacheReuse(t *testing.T) {
	m := noisyMachine(7)
	c := bell(t)
	if _, err := m.Run(c, 50, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	st := m.CacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first run: %+v, want 1 miss, 0 hits, 1 entry", st)
	}
	// A semantically identical circuit built separately hits the cache...
	c2 := bell(t)
	c2.Name = "same circuit, different name"
	if _, err := m.Run(c2, 50, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	st = m.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after identical rerun: %+v, want 1 hit, 1 miss", st)
	}
	// ...and a different circuit does not.
	c3 := circuit.New(2, 2)
	c3.H(0).CX(0, 1).X(0).MeasureAll()
	if _, err := m.Run(c3, 50, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	st = m.CacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after distinct circuit: %+v, want 1 hit, 2 misses, 2 entries", st)
	}
}

func TestProgramCacheDeterminism(t *testing.T) {
	// Cached-program runs must be bit-identical to fresh-compile runs.
	c := bell(t)
	fresh := noisyMachine(7)
	want, err := fresh.Run(c, 500, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cached := noisyMachine(7)
	if _, err := cached.Run(c, 500, rng.New(1)); err != nil { // warm the cache
		t.Fatal(err)
	}
	got, err := cached.Run(c, 500, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if cached.CacheStats().Hits == 0 {
		t.Fatal("second run did not hit the cache")
	}
	for _, e := range want.Sorted() {
		if got.Count(e.Value) != e.Count {
			t.Fatalf("cached run diverged at %v: %d vs %d", e.Value, got.Count(e.Value), e.Count)
		}
	}
}

func TestProgramCacheEviction(t *testing.T) {
	m := noisyMachine(7)
	const extra = 5
	for i := 0; i < progCacheLimit+extra; i++ {
		c := circuit.New(2, 2)
		c.H(0).RZ(0, float64(i)*0.01).CX(0, 1).MeasureAll()
		if _, err := m.Run(c, 10, rng.New(uint64(i))); err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
	}
	st := m.CacheStats()
	if st.Entries > progCacheLimit {
		t.Fatalf("cache grew past its bound: %+v", st)
	}
	if st.Evictions != extra {
		t.Fatalf("evictions = %d, want %d (%+v)", st.Evictions, extra, st)
	}
	if st.Misses != progCacheLimit+extra {
		t.Fatalf("misses = %d, want %d", st.Misses, progCacheLimit+extra)
	}
}

func TestProgramCacheConcurrent(t *testing.T) {
	// Hammer the cache from many goroutines across a small circuit set;
	// run with -race to check the locking discipline.
	m := noisyMachine(7)
	circuits := make([]*circuit.Circuit, 4)
	for i := range circuits {
		c := circuit.New(2, 2)
		c.H(0).RZ(0, float64(i)*0.1).CX(0, 1).MeasureAll()
		circuits[i] = c
	}
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 8; i++ {
				if _, err := m.Run(circuits[(g+i)%len(circuits)], 20, rng.New(uint64(g*100+i))); err != nil {
					errs <- fmt.Errorf("goroutine %d run %d: %w", g, i, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := m.CacheStats()
	if st.Entries != len(circuits) {
		t.Fatalf("entries = %d, want %d (%+v)", st.Entries, len(circuits), st)
	}
	if st.Hits == 0 {
		t.Fatalf("no cache hits across 128 runs: %+v", st)
	}
}

// TestProgramCacheSingleflight: concurrent misses on one circuit compile
// it once and share the program.
func TestProgramCacheSingleflight(t *testing.T) {
	m := noisyMachine(7)
	c := bell(t)
	const n = 8
	progs := make(chan *program, n)
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		go func() {
			<-start
			p, err := m.getProgram(c)
			if err != nil {
				t.Error(err)
			}
			progs <- p
		}()
	}
	close(start)
	first := <-progs
	for g := 1; g < n; g++ {
		if p := <-progs; p != first {
			t.Fatal("concurrent misses returned different programs")
		}
	}
	st := m.CacheStats()
	if st.Misses != 1 || st.Hits+st.Waits != n-1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits+waits, 1 entry", st, n-1)
	}
}
