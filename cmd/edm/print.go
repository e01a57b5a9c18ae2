package main

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"edm/internal/dist"
	"edm/internal/experiment"
	"edm/internal/report"
)

// out is the destination for all experiment output; tests swap it.
var out io.Writer = os.Stdout

func printTable1(s experiment.Setup) {
	rows := experiment.Table1(s)
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name, r.Output,
			strconv.Itoa(r.Logical.SG), strconv.Itoa(r.Logical.CX), strconv.Itoa(r.Logical.M),
			strconv.Itoa(r.Compiled.SG), strconv.Itoa(r.Compiled.CX), strconv.Itoa(r.Compiled.M),
			strconv.Itoa(r.Depth), strconv.Itoa(r.Swaps), report.F(r.ESP),
		})
	}
	report.Table(out, []string{
		"benchmark", "output",
		"SG", "CX", "M",
		"SG(mapped)", "CX(mapped)", "M(mapped)",
		"depth", "swaps", "ESP",
	}, cells)
	fmt.Fprintln(out, "\nnote: the paper's Table 1 lists post-mapping counts; compare the (mapped) columns.")
}

func printTable2() {
	r := experiment.Table2()
	fmt.Fprintf(out, "P = %v\nQ = %v\n", r.P, r.Q)
	report.Table(out, []string{"quantity", "nats", "base-10 (paper prints)"}, [][]string{
		{"D(P||Q)", report.F(r.DPQ), report.F(r.DPQBase10)},
		{"D(Q||P)", report.F(r.DQP), report.F(r.DQPBase10)},
		{"SD(P,Q)", report.F(r.SymKL), report.F(r.SymKL / 2.302585092994046)},
	})
}

func printDistTop(d *dist.Dist, n int) {
	top := d.TopK(n)
	cells := make([][]string, 0, len(top))
	for _, o := range top {
		cells = append(cells, []string{o.Value.String(), report.Pct(o.P)})
	}
	report.Table(out, []string{"outcome", "probability"}, cells)
}

func printFig1(s experiment.Setup) {
	r := experiment.Fig1(s)
	fmt.Fprintf(out, "(a) ideal machine, key %s:\n", r.Key)
	printDistTop(r.Ideal, 4)
	if r.Good != nil {
		fmt.Fprintf(out, "\n(b) NISQ round with correct inference (IST %.2f):\n", r.GoodIST)
		printDistTop(r.Good, 4)
	} else {
		fmt.Fprintln(out, "\n(b) no round produced IST > 1 at this scale")
	}
	if r.Bad != nil {
		fmt.Fprintf(out, "\n(c) NISQ round with wrong inference (IST %.2f):\n", r.BadIST)
		printDistTop(r.Bad, 4)
	} else {
		fmt.Fprintln(out, "\n(c) no round produced IST < 1 at this scale")
	}
}

func printFig3(s experiment.Setup) {
	r := experiment.Fig3(s)
	fmt.Fprintf(out, "BV-6, single best mapping, %d trials: PST %s, IST %.3f, %d/%d outcomes observed\n\n",
		s.Trials, report.Pct(r.PST), r.IST, r.Support, r.Outcomes)
	labels := make([]string, 0, 16)
	values := make([]float64, 0, 16)
	for i, o := range r.Sorted {
		if i == 16 {
			break
		}
		labels = append(labels, o.Value.String())
		values = append(values, o.P)
	}
	report.Bars(out, labels, values, 40, 0, "")
	fmt.Fprintln(out, "(outcomes sorted by frequency; paper Figure 3 shows the same shape)")
}

func printFig4(s experiment.Setup) {
	r := experiment.Fig4(s)
	fmt.Fprintf(out, "(a) eight runs, single best mapping: avg pairwise SymKL = %.3f\n", r.AvgSame)
	report.Heatmap(out, r.Same)
	fmt.Fprintf(out, "\n(b) eight diverse mappings: avg pairwise SymKL = %.3f\n", r.AvgDiverse)
	report.Heatmap(out, r.Diverse)
	fmt.Fprintf(out, "\ndiversity ratio: %.1fx (paper: ~0.5 vs ~0.03)\n", r.AvgDiverse/r.AvgSame)
}

func printFig6(s experiment.Setup) {
	r := experiment.Fig6(s)
	labels := make([]string, 0, 9)
	values := make([]float64, 0, 9)
	for i, ist := range r.MappingIST {
		labels = append(labels, fmt.Sprintf("map-%c", 'A'+i))
		values = append(values, ist)
	}
	labels = append(labels, "EDM(A+B+C+D)")
	values = append(values, r.EDMIST)
	report.Bars(out, labels, values, 40, 1, "IST=1")
}

func printFig7(s experiment.Setup) {
	rows := experiment.Fig7(s)
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload,
			report.F(r.BaselineIST), report.F(r.PostExecIST), report.F(r.EDMIST),
			report.F(r.EDMOverBaseline()), report.F(r.EDMOverPostExec()),
		})
	}
	report.Table(out, []string{
		"workload", "IST best(compile)", "IST best(post-exec)", "IST EDM",
		"EDM/compile", "EDM/post-exec",
	}, cells)
}

func printFig8(s experiment.Setup) {
	r := experiment.Fig8(s)
	cells := make([][]string, 0, 8)
	for i := range r.ESP {
		cells = append(cells, []string{
			fmt.Sprintf("map-%c", 'A'+i), report.F(r.ESP[i]), report.F(r.PST[i]),
		})
	}
	report.Table(out, []string{"mapping", "ESP (compile)", "PST (run)"}, cells)
	fmt.Fprintf(out, "\nPearson correlation %.3f; best by ESP: map-%c, best by PST: map-%c\n",
		r.Correlation, 'A'+r.BestESPIndex, 'A'+r.BestPSTIndex)
}

func printFig9(s experiment.Setup) {
	rows := experiment.Fig9(s)
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload, report.F(r.BaselineIST),
			report.F(r.EDM2IST), report.F(r.EDMIST), report.F(r.EDM6IST),
		})
	}
	report.Table(out, []string{"workload", "baseline IST", "EDM-2", "EDM-4", "EDM-6"}, cells)
}

func printFig11(s experiment.Setup) {
	rows := experiment.Fig11(s)
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload, report.F(r.BaselineIST), report.F(r.PostExecIST),
			report.F(r.EDMIST), report.F(r.WEDMIST),
			report.F(r.EDMOverBaseline()), report.F(r.WEDMOverBaseline()),
		})
	}
	report.Table(out, []string{
		"workload", "baseline IST", "post-exec IST", "EDM IST", "WEDM IST",
		"EDM gain", "WEDM gain",
	}, cells)
}

func printFig13(s experiment.Setup) {
	r := experiment.Fig13(s)
	cells := make([][]string, 0, len(r.PS))
	for i, ps := range r.PS {
		cells = append(cells, []string{
			report.Pct(ps),
			report.F(r.AnalyticUncorrelated[i]),
			report.F(r.MCQcor10[i]),
			report.F(r.MCQcor50[i]),
		})
	}
	report.Table(out, []string{"PST", "IST uncorrelated", "IST Qcor=10%", "IST Qcor=50%"}, cells)
	fmt.Fprintf(out, "\nPST frontiers (IST=1): uncorrelated %s, Qcor=10%% %s, Qcor=50%% %s\n",
		report.Pct(r.FrontierUncorrelated), report.Pct(r.FrontierQcor10), report.Pct(r.FrontierQcor50))
	fmt.Fprintln(out, "(paper: 1.8%, 3.6%, 8%)")
	fmt.Fprintln(out, "\nexperimental scatter (single best mapping, 8192 trials):")
	scatter := make([][]string, 0, len(r.Experimental))
	for _, p := range r.Experimental {
		scatter = append(scatter, []string{p.Workload, report.Pct(p.PST), report.F(p.IST)})
	}
	report.Table(out, []string{"workload", "PST", "IST"}, scatter)
}

// printDrift runs the drifting campaign (DESIGN.md §11): one device
// tracked across calibration windows, its candidate pools upgraded to
// each window instead of rebuilt. The campaign scale maps from the
// shared Setup: seed, rounds (cycles), trials, k and drift.
func printDrift(s experiment.Setup) {
	ds := experiment.DefaultDriftSetup()
	ds.Seed = s.Seed
	ds.Cycles = s.Rounds
	ds.Trials = s.Trials
	ds.K = s.K
	ds.Drift = s.Drift
	ds.Topo, ds.Profile = s.Topo, s.Profile
	r := experiment.RunDrifting(ds)
	fmt.Fprintf(out, "drifting campaign: k %d, %d cycles, workloads %v\n\n",
		ds.K, len(r.Rounds), ds.Workloads)
	cells := make([][]string, 0, len(r.Rounds))
	for _, rd := range r.Rounds {
		survival := "-" // cycle 0 builds every pool; nothing upgrades
		if rd.Recompile.Processed() > 0 {
			survival = report.Pct(rd.Recompile.Survival())
		}
		cells = append(cells, []string{
			strconv.Itoa(rd.Cycle),
			survival,
			strconv.FormatUint(rd.Recompile.Rescored, 10),
			strconv.FormatUint(rd.Recompile.Rerouted, 10),
			strconv.FormatUint(rd.Recompile.FullRebuilds, 10),
			fmt.Sprintf("%.2f", rd.CompileMs),
		})
	}
	report.Table(out, []string{
		"cycle", "survival", "kept", "rerouted", "rebuilds", "compile ms",
	}, cells)
	fmt.Fprintf(out, "\ncompile wall time: %.2f ms total, %.2f ms steady state (cycles >= 1)\n",
		r.CompileMsTotal, r.CompileMsSteady)
	fmt.Fprintf(out, "pool survival: %s of %d candidates kept their structure\n",
		report.Pct(r.Stats.Survival()), r.Stats.Processed())
}
