package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// Command is one shared subcommand. cmd/edmd dispatches exclusively over
// this table and cmd/edm consults it before its experiment registry, so
// the two binaries cannot drift: `edm run ...` and `edmd run ...` are the
// same code path, which is what makes the CLI-vs-server byte-identity
// contract checkable with cmp(1).
type Command struct {
	Name string
	Desc string
	// Run executes the subcommand and returns the process exit code:
	// 0 on success, 1 on execution failure, 2 on usage errors.
	Run func(args []string, stdout, stderr io.Writer) int
}

// Commands returns the shared subcommand table.
func Commands() []Command {
	return []Command{
		{Name: "run", Desc: "execute one job locally and print the canonical text result", Run: RunCLI},
		{Name: "serve", Desc: "start the edmd compile+run server", Run: ServeCLI},
	}
}

// Lookup finds a shared subcommand by name.
func Lookup(name string) (Command, bool) {
	for _, c := range Commands() {
		if c.Name == name {
			return c, true
		}
	}
	return Command{}, false
}

// jobFlags registers the job-shaping flags shared by run and serve.
func jobFlags(fs *flag.FlagSet, cfg *Config) {
	fs.StringVar(&cfg.Device, "device", cfg.Device, "target device: melbourne (default), tokyo, falcon27 or eagle127")
	fs.Uint64Var(&cfg.CalSeed, "calseed", cfg.CalSeed, "calibration stream seed")
	fs.Float64Var(&cfg.Drift, "drift", cfg.Drift, "calibration drift between compile and run time")
	fs.IntVar(&cfg.Window, "window", cfg.Window, "calibration window index")
}

// RunCLI executes one job locally through the same Service code the
// server uses and prints the canonical text bytes.
func RunCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := DefaultConfig()
	jobFlags(fs, &cfg)
	var (
		workload   = fs.String("workload", "", "named workload (bv-6, qaoa-5, adder, ...)")
		circPath   = fs.String("circuit", "", "circuit file to run instead of a workload (- for stdin)")
		format     = fs.String("format", "text", "inline circuit format: text or qasm")
		k          = fs.Int("k", 4, "ensemble size")
		trials     = fs.Int("trials", 16384, "total trial budget")
		seed       = fs.Uint64("seed", 2019, "job seed")
		policy     = fs.String("policy", "edm", "merge policy: edm, wedm or best")
		uniformity = fs.Float64("uniformity", 0, "uniformity filter factor (0 disables)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: run [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "run: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	spec := &JobSpec{
		Workload:         *workload,
		Format:           *format,
		K:                *k,
		Trials:           *trials,
		Seed:             *seed,
		Policy:           *policy,
		UniformityFilter: *uniformity,
	}
	if *circPath != "" {
		src, err := readSource(*circPath)
		if err != nil {
			fmt.Fprintf(stderr, "run: %v\n", err)
			return 1
		}
		spec.Circuit = src
	}
	// A one-shot service: minimal tier, no queueing pressure.
	cfg.Shards, cfg.ShardCap = 1, 8
	cfg.MaxConcurrent, cfg.MaxQueue = 1, 0
	cfg.JobTimeout = 0
	svc, err := NewService(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "run: %v\n", err)
		return 1
	}
	defer svc.Close()
	res, err := svc.RunJob(context.Background(), spec)
	if err != nil {
		fmt.Fprintf(stderr, "run: %v\n", err)
		return usageExit(err)
	}
	_, _ = io.WriteString(stdout, res.Text())
	return 0
}

// usageExit maps a job error to its exit code: payload problems are usage
// errors (2), everything else is a runtime failure (1).
func usageExit(err error) int {
	if errors.Is(err, ErrBadJob) {
		return 2
	}
	return 1
}

// readSource loads a circuit source from a file or stdin ("-").
func readSource(path string) (string, error) {
	var (
		b   []byte
		err error
	)
	if path == "-" {
		b, err = io.ReadAll(io.LimitReader(os.Stdin, MaxCircuitBytes+1))
	} else {
		b, err = os.ReadFile(path)
	}
	if err != nil {
		return "", err
	}
	if len(b) > MaxCircuitBytes {
		return "", fmt.Errorf("circuit source over the %d byte limit", MaxCircuitBytes)
	}
	return string(b), nil
}

// ServeCLI starts the HTTP server and blocks until shutdown.
func ServeCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := DefaultConfig()
	jobFlags(fs, &cfg)
	addr := fs.String("addr", "127.0.0.1:7119", "listen address (port 0 picks a free port)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown budget")
	fs.IntVar(&cfg.Shards, "shards", cfg.Shards, "result cache shards")
	fs.IntVar(&cfg.ShardCap, "shard-cap", cfg.ShardCap, "result cache entries per shard")
	fs.IntVar(&cfg.MaxConcurrent, "max-concurrent", cfg.MaxConcurrent, "concurrent job limit")
	fs.IntVar(&cfg.MaxQueue, "max-queue", cfg.MaxQueue, "admission queue depth")
	fs.DurationVar(&cfg.JobTimeout, "timeout", cfg.JobTimeout, "per-job wall-clock limit (0 disables)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: serve [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "serve: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	svc, err := NewService(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 2
	}
	srv := NewServer(svc)
	srv.DrainTimeout = *drain
	srv.ErrorLog = stderr

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(context.Background(), *addr, ready) }()
	select {
	case bound := <-ready:
		fmt.Fprintf(stdout, "edmd listening on %s (device %s, window %d)\n", bound, svc.DeviceName(), cfg.Window)
	case err := <-done:
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}
	if err := <-done; err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}
	return 0
}
