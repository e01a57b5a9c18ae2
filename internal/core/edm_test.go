package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"edm/internal/backend"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// newRunner builds a runner whose machine drifted away from the
// compile-time calibration, per the paper's Section 5.3 setting.
func newRunner(seed uint64, drift float64) *Runner {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(seed))
	runtimeCal := cal.Drift(drift, rng.New(seed+1000))
	return NewRunner(mapper.NewCompiler(cal), backend.New(runtimeCal))
}

func TestRunBasics(t *testing.T) {
	r := newRunner(1, 0.1)
	w := workloads.BV("1011")
	cfg := Config{K: 4, Trials: 2000, Weighting: WeightUniform}
	res, err := r.Run(w.Circuit, cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 4 {
		t.Fatalf("members = %d", len(res.Members))
	}
	total := 0
	for i, m := range res.Members {
		total += m.Counts.Total()
		if m.Output == nil || m.Exec == nil {
			t.Fatalf("member %d incomplete", i)
		}
		if math.Abs(m.Weight-0.25) > 1e-12 {
			t.Fatalf("EDM weight = %v, want 0.25", m.Weight)
		}
	}
	if total != 2000 {
		t.Fatalf("total trials = %d", total)
	}
	if math.Abs(res.Merged.Sum()-1) > 1e-9 {
		t.Fatalf("merged mass = %v", res.Merged.Sum())
	}
}

func TestTrialSplitRemainder(t *testing.T) {
	r := newRunner(2, 0)
	w := workloads.BV("101")
	res, err := r.Run(w.Circuit, Config{K: 3, Trials: 100, Weighting: WeightUniform}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	got := []int{res.Members[0].Counts.Total(), res.Members[1].Counts.Total(), res.Members[2].Counts.Total()}
	if got[0] != 34 || got[1] != 33 || got[2] != 33 {
		t.Fatalf("split = %v", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	r := newRunner(3, 0.1)
	w := workloads.BV("1101")
	cfg := Config{K: 2, Trials: 500, Weighting: WeightDivergence}
	a, err := r.Run(w.Circuit, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(w.Circuit, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Merged.Equal(b.Merged, 0) {
		t.Fatal("same seed produced different ensembles")
	}
}

func TestMembersUseDifferentMappings(t *testing.T) {
	r := newRunner(4, 0)
	w := workloads.QAOA(5)
	res, err := r.Run(w.Circuit, Config{K: 4, Trials: 400, Weighting: WeightUniform}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range res.Members {
		key := ""
		for _, q := range m.Exec.InitialLayout {
			key += string(rune('a' + q))
		}
		if seen[key] {
			t.Fatal("duplicate mapping in ensemble")
		}
		seen[key] = true
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRunner(5, 0)
	w := workloads.BV("11")
	if _, err := r.Run(w.Circuit, Config{K: 0, Trials: 100}, rng.New(1)); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := r.Run(w.Circuit, Config{K: 8, Trials: 4}, rng.New(1)); err == nil {
		t.Fatal("trials < K accepted")
	}
	if _, err := r.RunExecutables(nil, DefaultConfig(), rng.New(1)); err == nil {
		t.Fatal("empty ensemble accepted")
	}
	// Fewer trials than members would hand a member zero trials, whose
	// empty histogram cannot normalize: the ensemble must error before
	// any member starts.
	execs, err := r.Compiler.TopK(workloads.BV("111011").Circuit, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunExecutables(execs, Config{K: 2, Trials: 1}, rng.New(1)); err == nil {
		t.Fatal("1 trial over 2 members accepted")
	}
}

func TestMergeWeightsSchemes(t *testing.T) {
	a := dist.MustFromMap(map[string]float64{"00": 0.9, "11": 0.1})
	b := dist.MustFromMap(map[string]float64{"00": 0.9, "11": 0.1})
	c := dist.MustFromMap(map[string]float64{"01": 0.8, "10": 0.2})
	members := []*dist.Dist{a, b, c}

	uni := MergeWeights(members, WeightUniform)
	for _, w := range uni {
		if w != 1 {
			t.Fatalf("uniform weights = %v", uni)
		}
	}
	wedm := MergeWeights(members, WeightDivergence)
	if wedm[2] <= wedm[0] {
		t.Fatalf("WEDM should upweight the divergent member: %v", wedm)
	}
	inv := MergeWeights(members, WeightInverseDivergence)
	if inv[2] >= inv[0] {
		t.Fatalf("inverse weighting should downweight the divergent member: %v", inv)
	}
	// Identical members: fall back to uniform.
	same := MergeWeights([]*dist.Dist{a, b}, WeightDivergence)
	if same[0] != same[1] {
		t.Fatalf("identical members got different weights: %v", same)
	}
	// Single member: uniform regardless of scheme.
	one := MergeWeights([]*dist.Dist{a}, WeightDivergence)
	if len(one) != 1 || one[0] != 1 {
		t.Fatalf("single member weights = %v", one)
	}
}

func TestWeightingString(t *testing.T) {
	if WeightUniform.String() != "EDM" || WeightDivergence.String() != "WEDM" {
		t.Fatal("Weighting names wrong")
	}
	if Weighting(9).String() == "" {
		t.Fatal("unknown weighting empty")
	}
}

func TestUniformityFilter(t *testing.T) {
	// Synthesize a result with one informative and one uniform member and
	// check the filter discards the uniform one.
	informative := dist.MustFromMap(map[string]float64{"00": 0.7, "01": 0.1, "10": 0.1, "11": 0.1})
	res := &Result{Members: []Member{
		{Output: informative},
		{Output: dist.Uniform(2)},
	}}
	cfg := Config{K: 2, Trials: 100, Weighting: WeightUniform, UniformityFilter: 0.2}
	if err := mergeChecked(res, cfg); err != nil {
		t.Fatal(err)
	}
	if !res.Members[1].Discarded {
		t.Fatal("uniform member not discarded")
	}
	if res.Members[0].Discarded {
		t.Fatal("informative member discarded")
	}
	if !res.Merged.Equal(informative, 1e-12) {
		t.Fatalf("merged should equal the surviving member: %v", res.Merged)
	}
	// All-uniform ensemble: filter must keep everyone rather than nobody.
	res2 := &Result{Members: []Member{
		{Output: dist.Uniform(2)},
		{Output: dist.Uniform(2)},
	}}
	if err := mergeChecked(res2, cfg); err != nil {
		t.Fatal(err)
	}
	if res2.Members[0].Discarded || res2.Members[1].Discarded {
		t.Fatal("filter discarded the whole ensemble")
	}
	if res2.Merged == nil {
		t.Fatal("no merged output")
	}
}

func TestSingleBestBaseline(t *testing.T) {
	r := newRunner(6, 0.1)
	w := workloads.BV("1011")
	m, err := r.RunSingleBest(w.Circuit, 1000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Counts.Total() != 1000 {
		t.Fatalf("baseline trials = %d", m.Counts.Total())
	}
	if m.Weight != 1 {
		t.Fatalf("baseline weight = %v", m.Weight)
	}
}

func TestBestPostExec(t *testing.T) {
	r := newRunner(7, 0.2)
	w := workloads.BV("1011")
	res, err := r.Run(w.Circuit, Config{K: 4, Trials: 2000, Weighting: WeightUniform}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.BestPostExec(res, w.Correct, 2000, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if m.Counts.Total() != 2000 {
		t.Fatalf("post-exec trials = %d", m.Counts.Total())
	}
	// The chosen executable must be one of the ensemble's.
	found := false
	for _, mem := range res.Members {
		if mem.Exec == m.Exec {
			found = true
		}
	}
	if !found {
		t.Fatal("post-exec mapping not from the ensemble")
	}
}

// TestEDMImprovesMedianIST is the headline behavioural check (paper
// Figures 7/11 in miniature): across several calibration rounds, the
// median IST of the 4-member ensemble beats the median IST of the
// single-best-mapping baseline on a correlated-error machine.
func TestEDMImprovesMedianIST(t *testing.T) {
	w := workloads.BV("110011")
	var baseISTs, edmISTs, wedmISTs []float64
	rounds := 6
	for round := 0; round < rounds; round++ {
		r := newRunner(uint64(100+round), 0.25)
		seed := rng.New(uint64(9000 + round))
		base, err := r.RunSingleBest(w.Circuit, 4096, seed.Derive("base"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(w.Circuit, Config{K: 4, Trials: 4096, Weighting: WeightUniform}, seed.Derive("edm"))
		if err != nil {
			t.Fatal(err)
		}
		wres := &Result{Members: res.Members, Config: res.Config}
		if err := mergeChecked(wres, Config{K: 4, Trials: 4096, Weighting: WeightDivergence}); err != nil {
			t.Fatal(err)
		}
		baseISTs = append(baseISTs, base.Output.IST(w.Correct))
		edmISTs = append(edmISTs, res.Merged.IST(w.Correct))
		wedmISTs = append(wedmISTs, wres.Merged.IST(w.Correct))
	}
	mb, me, mw := median(baseISTs), median(edmISTs), median(wedmISTs)
	t.Logf("median IST: baseline=%.3f EDM=%.3f WEDM=%.3f", mb, me, mw)
	if me <= mb {
		t.Errorf("EDM median IST %.3f did not beat baseline %.3f", me, mb)
	}
	if mw < me*0.9 {
		t.Errorf("WEDM median IST %.3f far below EDM %.3f", mw, me)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// TestEnsembleEntropyAboveMembers: the merged distribution's entropy is
// at least the mean member entropy (the maximum-entropy intuition of
// Section 5.1).
func TestEnsembleEntropyAboveMembers(t *testing.T) {
	r := newRunner(8, 0.1)
	w := workloads.BV("10101")
	res, err := r.Run(w.Circuit, Config{K: 4, Trials: 4000, Weighting: WeightUniform}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, m := range res.Members {
		mean += m.Output.Entropy()
	}
	mean /= float64(len(res.Members))
	if res.Merged.Entropy() < mean-1e-9 {
		t.Fatalf("merged entropy %v below mean member entropy %v", res.Merged.Entropy(), mean)
	}
}

func TestRunExecutablesDirect(t *testing.T) {
	r := newRunner(9, 0)
	w := workloads.BV("101")
	execs, err := r.Compiler.TopK(w.Circuit, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunExecutables(execs, Config{K: 2, Trials: 200, Weighting: WeightUniform}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 2 || res.Merged == nil {
		t.Fatal("RunExecutables incomplete")
	}
	outs := res.MemberOutputs()
	if len(outs) != 2 || outs[0] != res.Members[0].Output {
		t.Fatal("MemberOutputs wrong")
	}
}

// TestEDMOnTokyo: the full pipeline is topology-agnostic — compile,
// ensemble, run and merge on the 20-qubit tokyo lattice.
func TestEDMOnTokyo(t *testing.T) {
	cal := device.Generate(device.Tokyo(), device.MelbourneProfile(), rng.New(77))
	r := NewRunner(mapper.NewCompiler(cal), backend.New(cal.Drift(0.2, rng.New(78))))
	w := workloads.BV("1100110") // 8 qubits incl. ancilla on 20-qubit fabric
	res, err := r.Run(w.Circuit, Config{K: 4, Trials: 2000, Weighting: WeightDivergence}, rng.New(79))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 4 {
		t.Fatalf("members = %d", len(res.Members))
	}
	seen := map[string]bool{}
	for _, m := range res.Members {
		key := fmt.Sprint(m.Exec.UsedQubits())
		if seen[key] {
			t.Fatal("tokyo ensemble reused a qubit set")
		}
		seen[key] = true
	}
	if res.Merged.Support() == 0 {
		t.Fatal("no output")
	}
}
