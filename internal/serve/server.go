package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// maxBodyBytes bounds a request body: the largest legal inline circuit
// plus generous head-room for the rest of the spec.
const maxBodyBytes = MaxCircuitBytes + 64*1024

// Server is the HTTP front of a Service.
//
//	POST /v1/jobs      run a job (JSON JobSpec in, JSON JobResult out;
//	                   ?format=text returns the canonical text bytes)
//	POST /v1/advance   move to the next calibration window
//	GET  /healthz      liveness
//	GET  /metrics      counters in the Prometheus text format
//	GET  /cachestats   JSON counters, per-shard included
//
// Malformed payloads are 400s, a full admission queue is 429, a job that
// outlives its deadline is 504, and a draining server turns new jobs away
// with 503 — the process itself never dies on input.
type Server struct {
	svc *Service
	// draining flips when shutdown starts; new jobs bounce with 503
	// while in-flight ones finish.
	draining atomic.Bool
	// DrainTimeout bounds graceful shutdown (default 30s).
	DrainTimeout time.Duration
	// ErrorLog receives request-level failures; nil discards them.
	ErrorLog io.Writer
}

// NewServer fronts svc.
func NewServer(svc *Service) *Server {
	return &Server{svc: svc, DrainTimeout: 30 * time.Second}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/advance", s.handleAdvance)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/cachestats", s.handleCacheStats)
	return mux
}

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// logf records a request-level failure.
func (s *Server) logf(format string, args ...any) {
	if s.ErrorLog != nil {
		fmt.Fprintf(s.ErrorLog, "edmd: "+format+"\n", args...)
	}
}

// handleJobs is the job endpoint: decode, validate, admit, run, encode.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		errorJSON(w, http.StatusMethodNotAllowed, "POST a JobSpec to this endpoint")
		return
	}
	if s.draining.Load() {
		errorJSON(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	spec, err := decodeJob(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "decode job: %v", err)
		return
	}
	// Cheap validation before a queue slot is spent on the job.
	spec.normalize()
	if err := spec.Validate(); err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx := r.Context()
	if s.svc.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.svc.cfg.JobTimeout)
		defer cancel()
	}
	if err := s.svc.Admission().Acquire(ctx, spec.Tenant); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			errorJSON(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, context.DeadlineExceeded):
			errorJSON(w, http.StatusGatewayTimeout, "timed out waiting for admission")
		default: // client went away while queued
			s.logf("job abandoned in admission queue: %v", err)
		}
		return
	}
	defer s.svc.Admission().Release()

	res, err := s.svc.RunJob(ctx, spec)
	if err != nil {
		switch {
		case errors.Is(err, ErrBadJob):
			errorJSON(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, context.DeadlineExceeded):
			errorJSON(w, http.StatusGatewayTimeout, "job exceeded its deadline")
		case errors.Is(err, context.Canceled):
			s.logf("job cancelled by client")
		default:
			s.logf("job failed: %v", err)
			errorJSON(w, http.StatusInternalServerError, "internal error")
		}
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, res.Text())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(res); err != nil {
		s.logf("encode result: %v", err)
	}
}

// decodeJob reads one JobSpec from a request body, refusing unknown
// fields.
func decodeJob(body io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	spec := new(JobSpec)
	if err := dec.Decode(spec); err != nil {
		return nil, err
	}
	return spec, nil
}

// handleAdvance moves the service one calibration window forward.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		errorJSON(w, http.StatusMethodNotAllowed, "POST to advance the window")
		return
	}
	window := s.svc.Advance()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]int{"window": window})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	_, _ = io.WriteString(w, "ok\n")
}

// series is one /metrics sample: its name after the edmd_ prefix, its
// help text and its value. A name ending in _total is a counter, any
// other a gauge.
type series struct {
	name, help string
	v          uint64
}

// handleMetrics emits the counters in the Prometheus text exposition
// format: every series has one HELP line and one TYPE line, then its
// sample.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.svc.Snapshot(false)
	e := &m.Engine
	all := []series{
		{"window", "Current calibration window index.", uint64(m.Window)},
		{"admission_capacity", "Jobs that may run at once.", uint64(m.Admission.Capacity)},
		{"admission_in_flight", "Jobs running now.", uint64(m.Admission.InFlight)},
		{"admission_queued", "Jobs waiting for admission now.", uint64(m.Admission.Queued)},
		{"admission_admitted_total", "Jobs admitted.", m.Admission.Admitted},
		{"admission_rejected_total", "Jobs turned away by a full queue.", m.Admission.Rejected},
		{"admission_cancelled_total", "Jobs abandoned while queued.", m.Admission.Cancelled},
		{"job_cache_hits_total", "Result tier lookups answered from a finished job.", m.Tier.Hits},
		{"job_cache_misses_total", "Result tier lookups that ran the job.", m.Tier.Misses},
		{"job_cache_waits_total", "Result tier lookups that joined a running job.", m.Tier.Waits},
		{"job_cache_evictions_total", "Result tier entries evicted or replaced.", m.Tier.Evictions},
		{"job_cache_entries", "Result tier entries held.", uint64(m.Tier.Entries)},
		{"compile_pool_hits_total", "Candidate pool lookups answered from the window's memo.", m.Pools.Hits},
		{"compile_pool_misses_total", "Candidate pool lookups that built a pool.", m.Pools.Misses},
		{"compile_pool_waits_total", "Candidate pool lookups that joined a running build.", m.Pools.Waits},
		{"plan_bytes", "Checkpoint and tape bytes of the current window's tape-tree plans.", uint64(m.Plans.Bytes())},
		{"plan_leaves", "Dominant paths of the current window's tape-tree plans.", uint64(m.Plans.Leaves)},
		{"engine_stab_programs_total", "Programs run on the stabilizer tableau.", uint64(e.StabPrograms)},
		{"engine_stab_fallbacks_total", "Programs with a non-Clifford step, run on the statevector.", uint64(e.StabFallbacks)},
		{"engine_stab_prefix_steps_total", "Clifford prefix steps over analyzed programs.", uint64(e.StabPrefixSteps)},
		{"engine_stab_trials_total", "Trials run on the stabilizer tableau.", uint64(e.StabTrials)},
		{"engine_stab_max_words", "Widest tableau row in 64-bit words.", uint64(e.StabMaxWords)},
		{"engine_trials_dominant_total", "Trials resolved on a tape-tree leaf with no state work.", uint64(e.FullDominantTrials)},
		{"engine_trials_divergent_total", "Trials that replayed a suffix from a checkpoint.", uint64(e.DivergentTrials)},
		{"engine_batch_buckets_total", "Checkpoint buckets the replay scheduler formed.", uint64(e.BatchBuckets)},
		{"engine_batch_units_total", "Replay units processed.", uint64(e.BatchUnits)},
		{"engine_batch_trials_total", "Divergent trials replayed in batches.", uint64(e.BatchTrials)},
		{"engine_batch_lane_clones_total", "Batch lanes cloned where a group split.", uint64(e.BatchLaneClones)},
	}
	var sb strings.Builder
	for _, x := range all {
		name, kind := "edmd_"+x.name, "gauge"
		if strings.HasSuffix(name, "_total") {
			kind = "counter"
		}
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, x.help, name, kind, name, x.v)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, sb.String())
}

// handleCacheStats emits the full JSON snapshot, per-shard included.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.svc.Snapshot(true))
}

// ListenAndServe serves on addr until ctx is cancelled or a SIGTERM /
// SIGINT arrives, then drains: the listener closes, queued and running
// jobs get DrainTimeout to finish, and only then does the service shut
// down. ready (optional) receives the bound address once listening —
// how callers and the CI smoke test learn the port behind ":0".
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		s.svc.Close()
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(context.Background(), s.DrainTimeout)
	defer cancel()
	err = hs.Shutdown(dctx)
	s.svc.Close()
	if err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}
