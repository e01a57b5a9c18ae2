package backend

import (
	"fmt"
	"testing"

	"edm/internal/circuit"
	"edm/internal/rng"
	"edm/internal/statevec"
)

// benchPath is a long simple path through the melbourne coupling graph.
// Qubits 0 and 7 are the only degree-1 vertices and 9 hangs off 5, so the
// path below plus the final (5,9) link activates all 14 device qubits.
var benchPath = []int{0, 1, 13, 12, 2, 3, 11, 10, 4, 5, 6, 8, 7}

// benchCircuit returns a GHZ-style chain entangling the first `active`
// qubits of benchPath (plus qubit 9 when active >= 14), measured in full.
// It is the representative executable of the kernel benchmarks: every CX
// drags in depolarizing, damping, and crosstalk steps, so the compiled
// schedule exercises all kernel classes.
func benchCircuit(active int) *circuit.Circuit {
	if active < 2 || active > 14 {
		panic("benchCircuit: active out of range")
	}
	chain := active
	if chain > len(benchPath) {
		chain = len(benchPath)
	}
	c := circuit.New(14, active)
	c.H(benchPath[0])
	for i := 0; i+1 < chain; i++ {
		c.CX(benchPath[i], benchPath[i+1])
	}
	if active >= 14 {
		c.CX(5, 9)
	}
	cb := 0
	for i := 0; i < chain; i++ {
		c.Measure(benchPath[i], cb)
		cb++
	}
	if active >= 14 {
		c.Measure(9, cb)
	}
	return c
}

// BenchmarkRunTrajectory measures single-trial trajectory execution for
// representative executables of increasing width. The 14-qubit case is
// the kernel-throughput headline EXPERIMENTS.md records against the
// frozen pre-overhaul baseline.
func BenchmarkRunTrajectory(b *testing.B) {
	for _, nq := range []int{6, 10, 14} {
		b.Run(fmt.Sprintf("q%d", nq), func(b *testing.B) {
			m := noisyMachine(7)
			prog, err := m.getProgram(benchCircuit(nq))
			if err != nil {
				b.Fatal(err)
			}
			scratch := statevec.NewState(prog.nLocal)
			trueBits := make([]int, prog.numClbits)
			r := rng.New(11)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.runTrajectory(prog, scratch, trueBits, r.DeriveN("trial", i))
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkTrajectoryEngine measures per-trial execution of the legacy
// full-replay loop against the default engine (batched replay through
// Machine.Run, plan already built) on the same compiled programs. The
// batched sub-benchmarks also report the threshold-tape length and
// checkpoint memory overhead.
func BenchmarkTrajectoryEngine(b *testing.B) {
	for _, nq := range []int{6, 10, 14} {
		m := noisyMachine(7)
		m.engine = engineStatevector
		exe := benchCircuit(nq)
		prog, err := m.getProgram(exe)
		if err != nil {
			b.Fatal(err)
		}
		scratch := statevec.NewState(prog.nLocal)
		trueBits := make([]int, prog.numClbits)
		b.Run(fmt.Sprintf("legacy/q%d", nq), func(b *testing.B) {
			r := rng.New(11)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.runTrajectory(prog, scratch, trueBits, r.DeriveN("trial", i))
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
		b.Run(fmt.Sprintf("batched/q%d", nq), func(b *testing.B) {
			const trials = 1024
			if _, err := m.Run(exe, trials, rng.New(11)); err != nil { // builds the plan
				b.Fatal(err)
			}
			plan := m.planFor(prog)
			if plan == nil {
				b.Fatal("no prefix plan")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(exe, trials, rng.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			entries := 0
			for _, n := range plan.nodes {
				entries += len(n.tape)
			}
			b.ReportMetric(float64(b.N)*trials/b.Elapsed().Seconds(), "trials/s")
			b.ReportMetric(float64(entries), "tape-entries")
			b.ReportMetric(float64(len(plan.leaves)), "leaves")
			b.ReportMetric(float64(plan.stateBytes.Load())/1024, "ckpt-KiB")
		})
	}
}

// BenchmarkRunParallel measures the striped multi-worker Run path
// (trial count above parallelThreshold) end to end, including compile.
// The engine is pinned so the frozen baseline keeps measuring
// statevector work regardless of how the auto engine routes Clifford
// schedules.
func BenchmarkRunParallel(b *testing.B) {
	m := noisyMachine(7)
	m.engine = engineStatevector
	exe := benchCircuit(10)
	const trials = 2048
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(exe, trials, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*trials/b.Elapsed().Seconds(), "trials/s")
}
