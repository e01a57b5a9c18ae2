package backend

import (
	"edm/internal/circuit"
	"edm/internal/memo"
)

// progCacheLimit bounds the number of compiled programs kept per machine.
// Experiment campaigns cycle through a handful of executables per round
// (K ensemble members x a few policies), so a small bound captures all
// reuse while keeping worst-case memory trivial.
const progCacheLimit = 64

// progEntry is one cached compile+fuse result. Programs are immutable
// after compilation, so cached values are shared freely across
// goroutines. Compile errors depend only on the circuit and the
// machine's calibration, so they are cached alongside programs.
type progEntry struct {
	prog *program
	err  error
}

// CacheStats is a snapshot of the compiled-program cache counters.
type CacheStats = memo.Stats

// CacheStats returns the machine's compiled-program cache counters.
func (m *Machine) CacheStats() CacheStats { return m.progs.Stats() }

// progKey keys a circuit in the program cache: its fingerprint mixed with
// its shape, so that a (vanishingly unlikely) fingerprint collision
// between circuits of different shapes still misses.
func progKey(exe *circuit.Circuit) uint64 {
	h := memo.Mix(memo.Seed(), exe.Fingerprint())
	h = memo.Mix(h, uint64(exe.NumQubits))
	h = memo.Mix(h, uint64(exe.NumClbits))
	return memo.Mix(h, uint64(len(exe.Ops)))
}

// getProgram returns the compiled, fused program for the executable,
// reusing a cached result when the circuit matches. Concurrent misses on
// one circuit share a single compile.
func (m *Machine) getProgram(exe *circuit.Circuit) (*program, error) {
	e := m.progs.Get(progKey(exe), func() progEntry {
		raw, err := m.compile(exe)
		if err != nil {
			return progEntry{err: err}
		}
		return progEntry{prog: fuseProgram(raw)}
	})
	return e.prog, e.err
}
