package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"edm/internal/experiment"
	"edm/internal/serve"
)

// TestMain doubles as the edm binary: invoked with a "--" argument, the
// test binary runs main on the arguments after it (see runEdm).
func TestMain(m *testing.M) {
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"edm"}, os.Args[i+1:]...)
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// runEdm runs the CLI in a child process and returns its exit code and
// stderr.
func runEdm(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"--"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("edm %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestScaleFlagsAreUsageErrors: campaign scales the experiments cannot
// run exit 2 with one line on stderr before any experiment starts,
// instead of reaching a panic (a goroutine dump) mid-campaign.
func TestScaleFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-k", "0", "fig9"},
		{"-rounds", "0", "fig9"},
		{"-trials", "0", "fig9"},
		{"-trials", "-5", "fig9"},
		{"-trials", "2", "-k", "4", "fig9"},
		{"-trials", "7", "-k", "8", "fig11"},
		{"-quick", "-k", "4096", "fig9"},
		{"-quick", "-drift", "NaN", "fig9"},
		{"-quick", "-drift", "1e300", "fig9"},
		{"-quick", "-drift", "-0.1", "fig9"},
		{"-quick", "-drift", "+Inf", "fig9"},
	} {
		code, stderr := runEdm(t, args...)
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "edm: -") {
			t.Errorf("edm %v: exit %d, stderr %q; want exit 2 and one usage line", args, code, stderr)
		}
	}
	// The one-shot job path validates the same drift, device and window
	// through the service: a usage error with one line, never a panic.
	for _, flagVal := range [][2]string{
		{"-drift", "NaN"}, {"-drift", "1e300"}, {"-drift", "-0.1"},
		{"-device", "bogus"}, {"-window", "-1"},
	} {
		args := []string{"run", "-workload", "bv-6", "-k", "2", "-trials", "64", flagVal[0], flagVal[1]}
		code, stderr := runEdm(t, args...)
		if code != 2 || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
			t.Errorf("edm %v: exit %d, stderr %q; want exit 2 and one error line", args, code, stderr)
		}
	}
}

// TestUnmeasuredCircuitExitsTwo: `edm run -circuit` on a circuit that
// measures no qubit is a usage error with one line on stderr, not a
// histogram of empty or unwritten bits.
func TestUnmeasuredCircuitExitsTwo(t *testing.T) {
	for i, src := range []string{"qubits 2\nh 0\n", "qubits 2\ncbits 1\nh 0\n"} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("unmeasured%d.txt", i))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stderr := runEdm(t, "run", "-circuit", path, "-trials", "64")
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "measures no qubit") {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 and one line saying it measures no qubit", src, code, stderr)
		}
	}
}

// microSetup is the smallest campaign that exercises every printer.
func microSetup() experiment.Setup {
	s := experiment.Quick()
	s.Rounds = 1
	s.Trials = 256
	return s
}

func capture(t *testing.T, f func()) string {
	t.Helper()
	var sb strings.Builder
	old := out
	out = &sb
	defer func() { out = old }()
	f()
	return sb.String()
}

func TestExperimentRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, e := range experiments {
		if e.name == "" || e.desc == "" || e.run == nil {
			t.Fatalf("incomplete registry entry: %+v", e.name)
		}
		if names[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		names[e.name] = true
	}
	for _, want := range []string{"table1", "table2", "fig1", "fig3", "fig4",
		"fig6", "fig7", "fig8", "fig9", "fig11", "fig13"} {
		if !names[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
}

func TestPrintTable1(t *testing.T) {
	got := capture(t, func() { printTable1(microSetup()) })
	for _, want := range []string{"bv-6", "qaoa-7", "decode24", "ESP", "110011"} {
		if !strings.Contains(got, want) {
			t.Errorf("table1 output missing %q:\n%s", want, got)
		}
	}
}

func TestPrintTable2(t *testing.T) {
	got := capture(t, func() { printTable2() })
	if !strings.Contains(got, "0.046") || !strings.Contains(got, "D(P||Q)") {
		t.Errorf("table2 output wrong:\n%s", got)
	}
}

func TestPrintFig3(t *testing.T) {
	got := capture(t, func() { printFig3(microSetup()) })
	if !strings.Contains(got, "PST") || !strings.Contains(got, "#") {
		t.Errorf("fig3 output wrong:\n%s", got)
	}
}

func TestPrintFig6(t *testing.T) {
	got := capture(t, func() { printFig6(microSetup()) })
	if !strings.Contains(got, "map-A") || !strings.Contains(got, "EDM(A+B+C+D)") {
		t.Errorf("fig6 output wrong:\n%s", got)
	}
}

func TestPrintFig8(t *testing.T) {
	got := capture(t, func() { printFig8(microSetup()) })
	if !strings.Contains(got, "Pearson correlation") {
		t.Errorf("fig8 output wrong:\n%s", got)
	}
}

func TestPrintFig13(t *testing.T) {
	got := capture(t, func() { printFig13(microSetup()) })
	for _, want := range []string{"frontiers", "Qcor=10%", "qaoa-6"} {
		if !strings.Contains(got, want) {
			t.Errorf("fig13 output missing %q:\n%s", want, got)
		}
	}
}

func TestPrintFig1(t *testing.T) {
	s := microSetup()
	s.Rounds = 2
	s.Trials = 1024
	got := capture(t, func() { printFig1(s) })
	if !strings.Contains(got, "ideal machine") {
		t.Errorf("fig1 output wrong:\n%s", got)
	}
}

func TestPrintFig4(t *testing.T) {
	s := microSetup()
	got := capture(t, func() { printFig4(s) })
	if !strings.Contains(got, "diversity ratio") || !strings.Contains(got, "scale:") {
		t.Errorf("fig4 output wrong:\n%s", got)
	}
}

func TestPrintFig7(t *testing.T) {
	got := capture(t, func() { printFig7(microSetup()) })
	if !strings.Contains(got, "EDM/compile") || !strings.Contains(got, "qaoa-5") {
		t.Errorf("fig7 output wrong:\n%s", got)
	}
}

// TestPrintDrift: the drifting campaign takes k from the shared flags
// and prints a row per cycle.
func TestPrintDrift(t *testing.T) {
	s := microSetup()
	s.Rounds = 2
	s.K = 2
	got := capture(t, func() { printDrift(s) })
	if !strings.Contains(got, "k 2,") {
		t.Errorf("drift header does not show k 2:\n%s", got)
	}
	if !strings.Contains(got, "\n1 ") {
		t.Errorf("drift output has no cycle-1 row:\n%s", got)
	}
}

func TestStartProfilesWritesBothOutputs(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop := startProfiles(cpu, mem)
	// Burn a little CPU so the profile has samples to encode.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i % 7)
	}
	_ = x
	stop()
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesDisabledIsNoOp(t *testing.T) {
	stop := startProfiles("", "")
	stop() // must not panic or create files
}

// TestSharedSubcommandsDontShadowExperiments: the serving subcommands
// dispatch before the experiment registry, so a name collision would
// silently make an experiment unreachable. Forbid it.
func TestSharedSubcommandsDontShadowExperiments(t *testing.T) {
	names := map[string]bool{"all": true}
	for _, e := range experiments {
		names[e.name] = true
	}
	for _, c := range serve.Commands() {
		if names[c.Name] {
			t.Errorf("shared subcommand %q shadows an experiment", c.Name)
		}
		if c.Name == "" || c.Desc == "" || c.Run == nil {
			t.Errorf("incomplete shared subcommand %+v", c.Name)
		}
	}
}
