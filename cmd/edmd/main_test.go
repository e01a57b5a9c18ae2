package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownSubcommandExitsNonzero(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"bogus"}, &out, &errw); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown subcommand") || !strings.Contains(errw.String(), "serve") {
		t.Fatalf("usage not printed:\n%s", errw.String())
	}
}

func TestBadFlagExitsNonzero(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"run", "-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	var out2, errw2 strings.Builder
	if code := run([]string{"run", "stray-arg"}, &out2, &errw2); code != 2 {
		t.Fatalf("stray argument exit code %d, want 2", code)
	}
}

func TestBadJobExitsNonzero(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"run", "-workload", "no-such-workload", "-trials", "64"}, &out, &errw); code != 2 {
		t.Fatalf("exit code %d, want 2; stderr:\n%s", code, errw.String())
	}
}

func TestRunSubcommandPrintsResult(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"run", "-workload", "bv-6", "-k", "2", "-trials", "256", "-seed", "5"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code %d; stderr:\n%s", code, errw.String())
	}
	got := out.String()
	if !strings.HasPrefix(got, "# bv-6 window=0 policy=edm k=2 trials=256 seed=5\n") {
		t.Fatalf("unexpected header:\n%s", got)
	}
	if strings.Count(got, "\n") < 2 {
		t.Fatalf("no outcomes printed:\n%s", got)
	}
}

// TestNonFiniteCircuitExitsTwo: a circuit with a NaN gate angle is a
// usage error with one line on stderr, not a goroutine dump.
func TestNonFiniteCircuitExitsTwo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nan.txt")
	src := "qubits 2\ncbits 2\nx 0\nrz(NaN) 0\nmeasure 0 -> 0\nmeasure 1 -> 1\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if code := run([]string{"run", "-circuit", path, "-trials", "1024"}, &out, &errw); code != 2 {
		t.Fatalf("exit code %d, want 2; stderr:\n%s", code, errw.String())
	}
	if lines := strings.Count(errw.String(), "\n"); lines != 1 || !strings.Contains(errw.String(), "line 4") {
		t.Fatalf("stderr has %d lines, want one naming line 4:\n%s", lines, errw.String())
	}
}
