package mapper

import (
	"testing"

	"edm/internal/device"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// The benchmark bodies in this file are frozen: EXPERIMENTS.md compares
// their timings (go test -bench 'TopK|SingleBest|NewCompiler') against
// the baseline recorded at the commit before the compilation-pipeline
// overhaul, so the measured work per iteration must not change.

func benchCal() *device.Calibration {
	return device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(2019))
}

// BenchmarkTopK measures the full candidate pipeline — compile, isomorphic
// enumeration, ESP ranking, diversity selection — at the paper's default
// ensemble size, once per Table 1 workload.
func BenchmarkTopK(b *testing.B) {
	cal := benchCal()
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			comp := NewCompiler(cal)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comp.TopK(w.Circuit, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleBest measures TopK(k=1), the baseline policy the
// experiment campaign runs once per round and workload.
func BenchmarkSingleBest(b *testing.B) {
	cal := benchCal()
	w, _ := workloads.ByName("bv-6")
	comp := NewCompiler(cal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.TopK(w.Circuit, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewCompiler measures compiler construction (all-pairs
// reliability paths over the coupling graph).
func BenchmarkNewCompiler(b *testing.B) {
	cal := benchCal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCompiler(cal)
	}
}
