// Package bench is the paper-reproduction benchmark harness: one
// testing.B benchmark per table and figure of the evaluation. Each
// benchmark regenerates its artifact and reports the headline statistics
// as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced numbers next to the timings. EXPERIMENTS.md
// records a full-scale run against the paper's values.
//
// Scale: benchmarks default to a reduced campaign (3 rounds, 4096 trials)
// so the whole suite completes in minutes. Set EDM_BENCH_FULL=1 for the
// paper-scale protocol (10 rounds, 16384 trials).
package bench

import (
	"os"
	"testing"

	"edm/internal/experiment"
)

// benchSetup returns the campaign scale for benchmarks. NoCache pins the
// measured work: these benchmarks loop identical figures per iteration,
// and with the campaign memoization layer on (DESIGN.md §9) every
// iteration after the first would measure cache hits instead of the
// compile and simulation work the numbers are frozen against. The
// cached path is benchmarked end-to-end by perfbench's campaign
// workload.
func benchSetup() experiment.Setup {
	s := experiment.Default()
	if os.Getenv("EDM_BENCH_FULL") == "" {
		s.Rounds = 3
		s.Trials = 4096
	}
	s.NoCache = true
	return s
}

// BenchmarkTable1 regenerates Table 1 (benchmark characteristics).
func BenchmarkTable1(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		rows := experiment.Table1(s)
		if len(rows) != 9 {
			b.Fatalf("rows = %d", len(rows))
		}
		b.ReportMetric(float64(rows[1].Compiled.CX), "bv6-CX")
		b.ReportMetric(rows[1].ESP, "bv6-ESP")
	}
}

// BenchmarkTable2 regenerates the Appendix-B KL example.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Table2()
		b.ReportMetric(r.DPQBase10, "D(P||Q)b10")
		b.ReportMetric(r.DQPBase10, "D(Q||P)b10")
	}
}

// BenchmarkFig1 regenerates Figure 1 (BV-2 ideal / correct / wrong).
func BenchmarkFig1(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		r := experiment.Fig1(s)
		good, bad := 0.0, 0.0
		if r.Good != nil {
			good = 1
		}
		if r.Bad != nil {
			bad = 1
		}
		b.ReportMetric(good, "found-correct-round")
		b.ReportMetric(bad, "found-wrong-round")
	}
}

// BenchmarkFig3 regenerates Figure 3 (sorted BV-6 output distribution).
func BenchmarkFig3(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		r := experiment.Fig3(s)
		b.ReportMetric(r.PST, "PST")
		b.ReportMetric(r.IST, "IST")
		b.ReportMetric(float64(r.Support), "outcomes")
	}
}

// BenchmarkFig4 regenerates Figure 4 (pairwise KL heat maps). The paper's
// shape: diverse-mapping divergence far above same-mapping divergence.
func BenchmarkFig4(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		r := experiment.Fig4(s)
		b.ReportMetric(r.AvgSame, "KL-same")
		b.ReportMetric(r.AvgDiverse, "KL-diverse")
		if r.AvgDiverse <= r.AvgSame {
			b.Fatalf("diversity inverted: %v vs %v", r.AvgDiverse, r.AvgSame)
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (mappings A..H vs the ensemble).
func BenchmarkFig6(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		r := experiment.Fig6(s)
		b.ReportMetric(experiment.Median(r.MappingIST), "median-map-IST")
		b.ReportMetric(r.EDMIST, "EDM-IST")
	}
}

// BenchmarkFig7 regenerates Figure 7 (EDM vs compile-time and post-exec
// best single mappings, BV and QAOA).
func BenchmarkFig7(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig7(s)
		var overBase, overPost float64
		for _, r := range rows {
			overBase += r.EDMOverBaseline()
			overPost += r.EDMOverPostExec()
		}
		b.ReportMetric(overBase/float64(len(rows)), "EDM/baseline")
		b.ReportMetric(overPost/float64(len(rows)), "EDM/post-exec")
	}
}

// BenchmarkFig8 regenerates Figure 8 (ESP vs PST).
func BenchmarkFig8(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		r := experiment.Fig8(s)
		b.ReportMetric(r.Correlation, "ESP-PST-corr")
		b.ReportMetric(float64(r.BestPSTIndex), "best-PST-map")
	}
}

// BenchmarkFig9 regenerates Figure 9 (ensemble-size sensitivity).
func BenchmarkFig9(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig9(s)
		var g2, g4, g6 float64
		for _, r := range rows {
			g2 += ratioOr1(r.EDM2IST, r.BaselineIST)
			g4 += ratioOr1(r.EDMIST, r.BaselineIST)
			g6 += ratioOr1(r.EDM6IST, r.BaselineIST)
		}
		n := float64(len(rows))
		b.ReportMetric(g2/n, "EDM2-gain")
		b.ReportMetric(g4/n, "EDM4-gain")
		b.ReportMetric(g6/n, "EDM6-gain")
	}
}

// BenchmarkFig11 regenerates Figure 11 (EDM and WEDM across all
// workloads); the paper's headline numbers are up to 1.6x (EDM) and up to
// 2.3x (WEDM) IST improvement.
func BenchmarkFig11(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig11(s)
		var edm, wedm, maxEDM, maxWEDM float64
		for _, r := range rows {
			e, w := ratioOr1(r.EDMIST, r.BaselineIST), ratioOr1(r.WEDMIST, r.BaselineIST)
			edm += e
			wedm += w
			if e > maxEDM {
				maxEDM = e
			}
			if w > maxWEDM {
				maxWEDM = w
			}
		}
		n := float64(len(rows))
		b.ReportMetric(edm/n, "EDM-gain-avg")
		b.ReportMetric(wedm/n, "WEDM-gain-avg")
		b.ReportMetric(maxEDM, "EDM-gain-max")
		b.ReportMetric(maxWEDM, "WEDM-gain-max")
	}
}

// BenchmarkFig13 regenerates Figure 13 (buckets-and-balls frontiers and
// experimental scatter); paper frontiers: 1.8%, 3.6%, 8%.
func BenchmarkFig13(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		r := experiment.Fig13(s)
		b.ReportMetric(r.FrontierUncorrelated*100, "frontier-0%")
		b.ReportMetric(r.FrontierQcor10*100, "frontier-10%")
		b.ReportMetric(r.FrontierQcor50*100, "frontier-50%")
	}
}

func ratioOr1(num, den float64) float64 {
	if den <= 0 {
		return 1
	}
	return num / den
}
