// Command edm regenerates the paper's tables and figures on the simulated
// IBMQ-14 machine.
//
// Usage:
//
//	edm [flags] <experiment>
//	edm run [flags]        execute one job, print the canonical text result
//	edm serve [flags]      start the edmd compile+run server
//
// Experiments: table1 table2 fig1 fig3 fig4 fig6 fig7 fig8 fig9 fig11
// fig13 all
//
// The run and serve subcommands come from the table shared with cmd/edmd
// (internal/serve), so the two binaries execute jobs identically.
//
// Flags scale the campaign; the defaults match the paper's protocol
// (16384 trials, 10 rounds, 4-member ensembles, median reported).
// Use -quick for a fast smoke run, and -cpuprofile/-memprofile to
// capture pprof profiles of the campaign hot path.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"edm/internal/backend"
	"edm/internal/device"
	"edm/internal/experiment"
	"edm/internal/mapper"
	"edm/internal/serve"
)

func main() {
	// Shared serving subcommands dispatch before campaign flag parsing:
	// they own their flags, and keeping one table with edmd means the
	// binaries cannot drift.
	if len(os.Args) > 1 {
		if cmd, ok := serve.Lookup(os.Args[1]); ok {
			os.Exit(cmd.Run(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	var (
		seed   = flag.Uint64("seed", 2019, "campaign seed (full reproducibility)")
		rounds = flag.Int("rounds", 10, "calibration rounds (paper: 10)")
		trials = flag.Int("trials", 16384, "trials per policy per round (paper: 16384)")
		k      = flag.Int("k", 4, "default ensemble size (paper: 4)")
		drift  = flag.Float64("drift", 0.2, "calibration drift between compile and run time")
		dev    = flag.String("device", "", "campaign device: melbourne (default), tokyo, falcon27 or eagle127")
		quick  = flag.Bool("quick", false, "small fast campaign (3 rounds, 2048 trials)")
		stats  = flag.Bool("cachestats", false, "print campaign cache counters after the run")
		cpuOut = flag.String("cpuprofile", "", "write a pprof CPU profile of the campaign to `file`")
		memOut = flag.String("memprofile", "", "write a pprof heap profile to `file` after the run")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: edm [flags] <experiment>\n\nexperiments:\n")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
		}
		fmt.Fprintf(os.Stderr, "  %-8s %s\n\nsubcommands:\n", "all", "run every experiment in order")
		for _, c := range serve.Commands() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", c.Name, c.Desc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		if flag.NArg() > 1 {
			fmt.Fprintf(os.Stderr, "edm: unexpected argument %q\n", flag.Arg(1))
		}
		flag.Usage()
		os.Exit(2)
	}
	// -quick fixes the campaign scale; combining it with explicit scale
	// flags would silently ignore them, so reject the combination.
	if *quick {
		conflict := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "rounds" || f.Name == "trials" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(os.Stderr, "edm: -quick fixes the campaign scale and conflicts with -%s\n", conflict)
			os.Exit(2)
		}
	}

	s := experiment.Default()
	if *quick {
		s = experiment.Quick()
	}
	s.Seed = *seed
	if !*quick {
		s.Rounds = *rounds
		s.Trials = *trials
	}
	s.K = *k
	s.Drift = *drift
	if err := checkScale(s); err != nil {
		fmt.Fprintf(os.Stderr, "edm: %v\n", err)
		os.Exit(2)
	}
	topo, prof, err := device.ByName(*dev)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edm: %v\n", err)
		os.Exit(2)
	}
	s.Topo, s.Profile = topo, prof

	// Resolve the experiment list up front so an unknown name exits
	// before any profile file is created or started.
	name := flag.Arg(0)
	var todo []exp
	if name == "all" {
		todo = experiments
	} else {
		for _, e := range experiments {
			if e.name == name {
				todo = []exp{e}
				break
			}
		}
		if todo == nil {
			fmt.Fprintf(os.Stderr, "edm: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}

	stopProfiles := startProfiles(*cpuOut, *memOut)

	for _, e := range todo {
		if name == "all" {
			fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		}
		e.run(s)
		if name == "all" {
			fmt.Println()
		}
	}
	if *stats {
		printCacheStats(os.Stdout)
	}
	stopProfiles()
}

// checkScale rejects campaign scales the experiments cannot run, so a
// bad flag is a usage error instead of a panic mid-campaign: every
// experiment needs a positive ensemble size and at least one round, and
// Fig 9/11 split each policy's trial budget over up to max(k, 6)
// members (EDM-6), each of which needs a trial.
func checkScale(s experiment.Setup) error {
	switch need := max(s.K, 6); {
	case s.K < 1:
		return fmt.Errorf("-k %d: ensemble size must be at least 1", s.K)
	case s.Rounds < 1:
		return fmt.Errorf("-rounds %d: need at least 1 calibration round", s.Rounds)
	case s.Trials < need:
		return fmt.Errorf("-trials %d cannot cover a %d-member ensemble", s.Trials, need)
	case !(s.Drift >= 0 && s.Drift <= device.MaxDrift):
		return fmt.Errorf("-drift %v: must be a finite scale in [0, %v]", s.Drift, device.MaxDrift)
	}
	return nil
}

// startProfiles arms the requested pprof outputs and returns the hook
// main calls once the campaign is done: it stops the CPU profile and
// writes the heap profile after a final GC, so the snapshot reflects
// retained campaign state (caches, checkpoints) rather than transient
// garbage. Profiling failures are fatal up front — a silently missing
// profile after a long campaign is worse than an early exit.
func startProfiles(cpuOut, memOut string) func() {
	var cpuFile *os.File
	if cpuOut != "" {
		f, err := os.Create(cpuOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edm: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "edm: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "edm: -cpuprofile: %v\n", err)
				os.Exit(1)
			}
		}
		if memOut != "" {
			f, err := os.Create(memOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "edm: -memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "edm: -memprofile: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "edm: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// printCacheStats reports the campaign memoization counters (DESIGN.md
// §9): the Round cache, the rounds' Top-K ensemble caches, and the
// per-machine backend caches and tape-tree plans aggregated across
// cached rounds.
func printCacheStats(out *os.File) {
	round := experiment.RoundCacheStats()
	topk := mapper.TopKCacheStats()
	prog, run := experiment.BackendCacheStats()
	fmt.Fprintln(out, "campaign cache stats:")
	fmt.Fprintf(out, "  %-14s hits %-8d misses %-6d waits %-4d evictions %-4d entries %d\n",
		"round", round.Hits, round.Misses, round.Waits, round.Evictions, round.Entries)
	fmt.Fprintf(out, "  %-14s hits %-8d misses %-6d waits %-4d evictions %-4d entries %d\n",
		"topk", topk.Hits, topk.Misses, topk.Waits, topk.Evictions, topk.Entries)
	fmt.Fprintf(out, "  %-14s hits %-8d misses %-6d waits %-4d evictions %-4d entries %d\n",
		"backend/prog", prog.Hits, prog.Misses, prog.Waits, prog.Evictions, prog.Entries)
	fmt.Fprintf(out, "  %-14s hits %-8d misses %-6d waits %-4d evictions %-4d entries %d\n",
		"backend/run", run.Hits, run.Misses, run.Waits, run.Evictions, run.Entries)
	printEngineStats(out)
}

// printEngineStats reports the trajectory engine counters (DESIGN.md
// §10, §13, §15). The tape-tree row is the cached rounds' plans.
func printEngineStats(out *os.File) {
	es := backend.EngineStatsSnapshot()
	ps := experiment.PlanStats()
	fmt.Fprintln(out, "trajectory engine stats:")
	fmt.Fprintf(out, "  %-14s plans %-8d leaves %-6d forks-grown %-5d ckpt-KiB %-7d tape-KiB %d\n",
		"tape-tree", ps.Plans, ps.Leaves, ps.ForksGrown, ps.CheckpointBytes>>10, ps.TapeBytes>>10)
	fmt.Fprintf(out, "  %-14s dominant %-6d divergent %d\n",
		"trials", es.FullDominantTrials, es.DivergentTrials)
	meanBatch := 0.0
	if es.BatchUnits > 0 {
		meanBatch = float64(es.BatchTrials) / float64(es.BatchUnits)
	}
	fmt.Fprintf(out, "  %-14s buckets %-6d units %-6d mean-batch %-6.1f clones %d\n",
		"batched", es.BatchBuckets, es.BatchUnits, meanBatch, es.BatchLaneClones)
	fmt.Fprintf(out, "  %-14s programs %-5d fallbacks %-4d prefix-steps %-6d max-words %-3d trials %d\n",
		"stabilizer", es.StabPrograms, es.StabFallbacks, es.StabPrefixSteps, es.StabMaxWords, es.StabTrials)
}

type exp struct {
	name string
	desc string
	run  func(experiment.Setup)
}

var experiments = []exp{
	{"table1", "benchmark characteristics (gate counts, ESP)", printTable1},
	{"table2", "Appendix-B KL-divergence worked example", func(experiment.Setup) { printTable2() }},
	{"fig1", "BV-2 output: ideal vs NISQ correct vs NISQ wrong", printFig1},
	{"fig3", "sorted output distribution of BV-6 (single best mapping)", printFig3},
	{"fig4", "pairwise KL: same mapping vs diverse mappings", printFig4},
	{"fig6", "IST of mappings A..H and the EDM ensemble", printFig6},
	{"fig7", "EDM vs single-best (compile-time and post-execution)", printFig7},
	{"fig8", "compile-time ESP vs run-time PST", printFig8},
	{"fig9", "ensemble-size sensitivity (EDM-2/4/6)", printFig9},
	{"fig11", "EDM and WEDM IST improvement over baseline", printFig11},
	{"fig13", "buckets-and-balls: IST vs PST, frontiers, experimental scatter", printFig13},
	{"drift", "drifting campaign: drift-tracked pools across calibration windows", printDrift},
}
