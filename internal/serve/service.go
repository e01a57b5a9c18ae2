package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"edm/internal/backend"
	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/core"
	"edm/internal/device"
	"edm/internal/mapper"
	"edm/internal/memo"
	"edm/internal/rng"
)

// Config fixes a service instance's device, determinism anchor and
// resource bounds. The zero value is unusable; start from DefaultConfig.
type Config struct {
	// Device names the target device (see device.ByName): melbourne
	// (default), tokyo, falcon27 or eagle127. The heavy-hex devices run
	// Clifford-clean calibrations, so wide jobs route to the stabilizer
	// engine instead of a statevector the process could never allocate.
	Device string
	// CalSeed anchors the calibration stream. Window i's compile-time
	// calibration and drifted runtime truth derive from it exactly as
	// experiment.Setup derives a round: root = rng.New(CalSeed),
	// cal = Generate(topo, profile, root.DeriveN("calibration", i)),
	// runtime = cal.Drift(Drift, root.DeriveN("drift", i)). Job results
	// are therefore pure functions of (CalSeed, Drift, window, job).
	CalSeed uint64
	// Drift scales how far the runtime calibration wanders from the
	// compile-time data within a window.
	Drift float64
	// Window is the initial calibration window index.
	Window int

	// Shards and ShardCap size the job-result tier.
	Shards   int
	ShardCap int

	// MaxConcurrent and MaxQueue bound admission.
	MaxConcurrent int
	MaxQueue      int
	// JobTimeout caps one job's wall-clock time; 0 disables.
	JobTimeout time.Duration
}

// DefaultConfig matches the batch campaign's anchors (seed 2019, drift
// 0.2, IBMQ-14) with serving-scale resource bounds.
func DefaultConfig() Config {
	return Config{
		CalSeed:       2019,
		Drift:         0.2,
		Shards:        8,
		ShardCap:      256,
		MaxConcurrent: 4,
		MaxQueue:      64,
		JobTimeout:    2 * time.Minute,
	}
}

// Service executes jobs against one calibration window at a time. It
// owns two reuse layers: the job-result Tier (whole jobs) and the window
// compiler's pool memo (one candidate-pool build per circuit fingerprint
// per window). Both deduplicate via memo's singleflight, so any number of
// concurrent duplicate jobs cost one compile and one simulation.
type Service struct {
	cfg Config

	// win is the current window. Advance swaps in a new one; RunJob loads
	// it once, so a job's tier generation and its computation always come
	// from the same window.
	win atomic.Pointer[window]
	// advMu serializes Advance, so concurrent advances get distinct
	// indices. Jobs never take it.
	advMu sync.Mutex
	// pools counts every window compiler's pool memo lookups.
	pools memo.Counters

	tier *Tier
	adm  *Admission

	// life is cancelled by Close; detached builds run under it so a
	// dying service stops orphaned work, while request contexts only
	// detach waiters.
	life context.Context
	stop context.CancelFunc
}

// window is one calibration window's immutable serving snapshot: the
// compiler that sees the window's calibration, with a pool memo private
// to the window, and the machine running its drifted truth. Windows are
// independent calibration draws (windowCals), so nothing carries over
// from one window to the next; a retired window is freed once the jobs
// that loaded it finish.
type window struct {
	index int
	comp  *mapper.Compiler
	mach  *backend.Machine
}

// NewService builds a service at cfg.Window. Configuration errors (shard
// sizes, admission bounds) return as errors.
func NewService(cfg Config) (*Service, error) {
	tier, err := NewTier(cfg.Shards, cfg.ShardCap)
	if err != nil {
		return nil, err
	}
	adm, err := NewAdmission(cfg.MaxConcurrent, cfg.MaxQueue)
	if err != nil {
		return nil, err
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("serve: window %d must be non-negative", cfg.Window)
	}
	if !(cfg.Drift >= 0 && cfg.Drift <= device.MaxDrift) {
		return nil, fmt.Errorf("serve: drift %v must be a finite scale in [0, %v]", cfg.Drift, device.MaxDrift)
	}
	if _, _, err := device.ByName(cfg.Device); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	life, stop := context.WithCancel(context.Background())
	s := &Service{cfg: cfg, tier: tier, adm: adm, life: life, stop: stop}
	s.win.Store(s.newWindow(cfg.Window))
	return s, nil
}

// newWindow builds window i's snapshot.
func (s *Service) newWindow(i int) *window {
	cal, runtimeCal := windowCals(s.cfg, i)
	return &window{
		index: i,
		comp:  mapper.NewMemoCompiler(cal, &s.pools),
		mach:  backend.New(runtimeCal),
	}
}

// windowCals materializes window i's compile-time calibration and its
// drifted runtime truth, exactly as the batch campaign does per round.
// cfg.Device must already be validated (NewService checks it); an
// unknown name here is a programming error, not user input.
func windowCals(cfg Config, i int) (cal, runtimeCal *device.Calibration) {
	topo, prof, err := device.ByName(cfg.Device)
	if err != nil {
		panic(err)
	}
	root := rng.New(cfg.CalSeed)
	cal = device.Generate(topo, prof, root.DeriveN("calibration", i))
	runtimeCal = cal.Drift(cfg.Drift, root.DeriveN("drift", i))
	return cal, runtimeCal
}

// Close stops the service: detached builds see a cancelled context and
// fail fast instead of simulating for nobody.
func (s *Service) Close() { s.stop() }

// DeviceName returns the canonical name of the configured device
// ("melbourne" for the empty default).
func (s *Service) DeviceName() string {
	if s.cfg.Device == "" {
		return "melbourne"
	}
	return s.cfg.Device
}

// Window returns the current calibration window index.
func (s *Service) Window() int { return s.win.Load().index }

// Advance moves the service to the next calibration window and returns
// its index: it builds the window's compiler and machine from scratch and
// swaps them in. Jobs already running finish on the window they loaded;
// cached job results of older windows recompute in place on their next
// request, because the window index is the result tier's generation.
func (s *Service) Advance() int {
	s.advMu.Lock()
	defer s.advMu.Unlock()
	w := s.newWindow(s.win.Load().index + 1)
	s.win.Store(w)
	return w.index
}

// RunJob validates and executes one job. Malformed specs and unparsable
// circuits return ErrBadJob; a ctx that expires while an identical job is
// still building detaches with ctx.Err() and leaves the build to complete
// for whoever asks next. Admission is the caller's concern (the HTTP
// layer acquires before calling); RunJob itself only dedupes and runs.
func (s *Service) RunJob(ctx context.Context, spec *JobSpec) (*JobResult, error) {
	spec.normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	circ, err := spec.buildCircuit()
	if err != nil {
		return nil, err
	}
	// Histogram keys are single machine words; a job that measures more
	// classical bits than bitstr can hold is a payload problem, caught
	// here so wide-device (127-qubit) inline circuits fail with a 4xx
	// instead of surfacing as an execution error.
	if circ.NumClbits > bitstr.MaxBits {
		return nil, badJob("circuit measures %d classical bits, histogram limit %d", circ.NumClbits, bitstr.MaxBits)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	fp := circ.Fingerprint()
	w := s.win.Load()
	out, err := s.tier.Do(ctx, spec.key(fp), uint64(w.index), func() *jobOutcome {
		return s.execute(w, spec, circ, fp)
	})
	if err != nil {
		return nil, err
	}
	return out.res, out.err
}

// execute runs a job on window w under the service's lifetime context.
// It is always invoked from a detached tier build, so it must not touch
// the request context — the job it computes outlives any one requester.
func (s *Service) execute(w *window, spec *JobSpec, circ *circuit.Circuit, fp uint64) *jobOutcome {
	execs, err := w.comp.TopKCtx(s.life, circ, spec.K)
	if err != nil {
		// Compile failures describe the job (circuit too large for the
		// device, no isomorphic placement): deterministic, cacheable, 4xx.
		return &jobOutcome{err: badJob("compile: %v", err)}
	}
	runner := &core.Runner{Machine: w.mach}
	res, err := runner.RunExecutablesCtx(s.life, execs, spec.config(), rng.New(spec.Seed))
	if err != nil {
		return &jobOutcome{err: fmt.Errorf("serve: execute: %w", err)}
	}
	return &jobOutcome{res: newJobResult(spec, fp, w.index, res)}
}

// Metrics is the live counter snapshot behind /metrics and /cachestats.
// Engine is the process-wide trajectory-engine snapshot (stabilizer
// routing, prefix plans); in the single-service edmd process it reflects
// this service's machines.
type Metrics struct {
	Window    int            `json:"window"`
	Device    string         `json:"device"`
	Admission AdmissionStats `json:"admission"`
	Tier      memo.Stats     `json:"tier"`
	TierShard []memo.Stats   `json:"tier_shards,omitempty"`
	// Pools sums every window compiler's pool memo since the service
	// started: one miss per (circuit fingerprint, window) for k >= 2 and
	// one for k = 1. A retired window's pools are freed with it, not
	// evicted, so Entries counts every pool built less FIFO evictions.
	Pools memo.Stats `json:"compile_pools"`
	// Recompile and Runs are always zero: windows are independent
	// calibration draws compiled from scratch, and the Tier answers a
	// repeated job before any run cache could. The fields stay for
	// readers of the snapshot.
	Recompile mapper.RecompileStats `json:"recompile"`
	Runs      memo.Stats            `json:"runs"`
	Engine    backend.EngineStats   `json:"engine"`
}

// Snapshot gathers the service's counters.
func (s *Service) Snapshot(withShards bool) Metrics {
	m := Metrics{
		Window:    s.Window(),
		Device:    s.DeviceName(),
		Admission: s.adm.Stats(),
		Tier:      s.tier.Stats(),
		Pools:     s.pools.Stats(),
		Engine:    backend.EngineStatsSnapshot(),
	}
	if withShards {
		m.TierShard = s.tier.ShardStats()
	}
	return m
}

// PoolStats exposes the compile-pool counters for tests asserting the
// one-compile-per-(fingerprint, window) contract.
func (s *Service) PoolStats() memo.Stats { return s.pools.Stats() }

// TierStats exposes the aggregated result-tier counters.
func (s *Service) TierStats() memo.Stats { return s.tier.Stats() }

// Admission exposes the admission controller for the HTTP layer.
func (s *Service) Admission() *Admission { return s.adm }
