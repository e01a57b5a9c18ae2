package serve

import (
	"context"
	"fmt"
	"sync"
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
	// Tol is the relative tolerance handed to mapper.Tracking on window
	// advances; 0 keeps RecompileChecked exact regardless.
	Tol float64

	// Shards and ShardCap size the job-result tier.
	Shards   int
	ShardCap int
	// TTL bounds how long a cached job result may serve before the next
	// request recomputes it in place; 0 disables time-based expiry.
	TTL time.Duration

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
		TTL:           10 * time.Minute,
		MaxConcurrent: 4,
		MaxQueue:      64,
		JobTimeout:    2 * time.Minute,
	}
}

// Service executes jobs against one tracked device. It owns three reuse
// layers: the job-result Tier (whole jobs), the Tracking compiler's
// generation-tagged candidate pools (one compile per circuit fingerprint
// per calibration generation, upgraded incrementally across windows), and
// the window machine's trial-run cache. All three deduplicate via memo's
// singleflight, so any number of concurrent duplicate jobs cost one
// compile and one simulation.
type Service struct {
	cfg Config

	// mu orders window advances against job compiles: RunJob's compile
	// section holds it shared, Advance holds it exclusively
	// (mapper.Tracking forbids Advance racing TopK).
	mu     sync.RWMutex
	track  *mapper.Tracking
	mach   *backend.Machine
	window int

	tier *Tier
	adm  *Admission

	// life is cancelled by Close; detached builds run under it so a
	// dying service stops orphaned work, while request contexts only
	// detach waiters.
	life context.Context
	stop context.CancelFunc

	// now is the TTL clock, swappable in tests.
	now func() time.Time
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
	if cfg.TTL < 0 {
		return nil, fmt.Errorf("serve: ttl %v must be non-negative", cfg.TTL)
	}
	if !(cfg.Drift >= 0 && cfg.Drift <= device.MaxDrift) {
		return nil, fmt.Errorf("serve: drift %v must be a finite scale in [0, %v]", cfg.Drift, device.MaxDrift)
	}
	if _, _, err := device.ByName(cfg.Device); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	cal, runtimeCal := windowCals(cfg, cfg.Window)
	life, stop := context.WithCancel(context.Background())
	s := &Service{
		cfg:    cfg,
		track:  mapper.NewTracking(cal, mapper.RecompileChecked),
		mach:   newWindowMachine(runtimeCal),
		window: cfg.Window,
		tier:   tier,
		adm:    adm,
		life:   life,
		stop:   stop,
		now:    time.Now,
	}
	return s, nil
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

// newWindowMachine builds the execution machine for a window's runtime
// calibration, with whole-run memoization on.
func newWindowMachine(runtimeCal *device.Calibration) *backend.Machine {
	m := backend.New(runtimeCal)
	m.EnableRunCache()
	return m
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
func (s *Service) Window() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.window
}

// Advance moves the service to the next calibration window: the tracked
// compiler diffs the new calibration and upgrades its cached pools
// incrementally (reused/rescored/rerouted, not flushed), the machine is
// rebuilt on the drifted runtime truth, and the result tier's generation
// tag moves so cached jobs recompute in place on next access. It blocks
// until in-flight compiles finish and returns the new window index.
func (s *Service) Advance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.window++
	cal, runtimeCal := windowCals(s.cfg, s.window)
	s.track.Advance(cal, s.cfg.Tol)
	s.mach = newWindowMachine(runtimeCal)
	return s.window
}

// genTag is the result tier's generation: the compiler generation (bumped
// by Advance) mixed with the TTL epoch. memo.GetGenCtx replaces an entry
// whose tag is stale in place, so both drift and expiry cost one rebuild
// of the touched entry and nothing else.
func (s *Service) genTag() uint64 {
	s.mu.RLock()
	gen := s.track.Generation()
	s.mu.RUnlock()
	h := memo.Mix(memo.Seed(), gen)
	if s.cfg.TTL > 0 {
		h = memo.Mix(h, uint64(s.now().UnixNano()/int64(s.cfg.TTL)))
	}
	return h
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
	out, err := s.tier.Do(ctx, spec.key(fp), s.genTag(), func() *jobOutcome {
		return s.execute(spec, circ, fp)
	})
	if err != nil {
		return nil, err
	}
	return out.res, out.err
}

// execute runs a job uncached under the service's lifetime context. It is
// always invoked from a detached tier build, so it must not touch the
// request context — the job it computes outlives any one requester.
func (s *Service) execute(spec *JobSpec, circ *circuit.Circuit, fp uint64) *jobOutcome {
	s.mu.RLock()
	track, mach, window := s.track, s.mach, s.window
	execs, err := track.TopKCtx(s.life, circ, spec.K)
	s.mu.RUnlock()
	if err != nil {
		// Compile failures describe the job (circuit too large for the
		// device, no isomorphic placement): deterministic, cacheable, 4xx.
		return &jobOutcome{err: badJob("compile: %v", err)}
	}
	runner := &core.Runner{Machine: mach}
	res, err := runner.RunExecutablesCtx(s.life, execs, spec.config(), rng.New(spec.Seed))
	if err != nil {
		return &jobOutcome{err: fmt.Errorf("serve: execute: %w", err)}
	}
	return &jobOutcome{res: newJobResult(spec, fp, window, res)}
}

// Metrics is the live counter snapshot behind /metrics and /cachestats.
// Engine is the process-wide trajectory-engine snapshot (stabilizer
// routing, prefix plans); in the single-service edmd process it reflects
// this service's machines.
type Metrics struct {
	Window    int                   `json:"window"`
	Device    string                `json:"device"`
	Admission AdmissionStats        `json:"admission"`
	Tier      memo.Stats            `json:"tier"`
	TierShard []memo.Stats          `json:"tier_shards,omitempty"`
	Pools     memo.Stats            `json:"compile_pools"`
	Recompile mapper.RecompileStats `json:"recompile"`
	Runs      memo.Stats            `json:"runs"`
	Engine    backend.EngineStats   `json:"engine"`
}

// Snapshot gathers the service's counters.
func (s *Service) Snapshot(withShards bool) Metrics {
	s.mu.RLock()
	window := s.window
	pools := s.track.PoolStats()
	rec := s.track.Stats()
	runs := s.mach.RunCacheStats()
	s.mu.RUnlock()
	m := Metrics{
		Window:    window,
		Device:    s.DeviceName(),
		Admission: s.adm.Stats(),
		Tier:      s.tier.Stats(),
		Pools:     pools,
		Recompile: rec,
		Runs:      runs,
		Engine:    backend.EngineStatsSnapshot(),
	}
	if withShards {
		m.TierShard = s.tier.ShardStats()
	}
	return m
}

// PoolStats exposes the compile-pool counters for tests asserting the
// one-compile-per-(fingerprint, generation) contract.
func (s *Service) PoolStats() memo.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.track.PoolStats()
}

// TierStats exposes the aggregated result-tier counters.
func (s *Service) TierStats() memo.Stats { return s.tier.Stats() }

// Admission exposes the admission controller for the HTTP layer.
func (s *Service) Admission() *Admission { return s.adm }
