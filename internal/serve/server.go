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
//	GET  /metrics      plain-text counters
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	spec := new(JobSpec)
	if err := dec.Decode(spec); err != nil {
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

// handleMetrics emits the counters in plain-text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.svc.Snapshot(false)
	var sb strings.Builder
	put := func(name string, v uint64) { fmt.Fprintf(&sb, "edmd_%s %d\n", name, v) }
	put("window", uint64(m.Window))
	put("admission_capacity", uint64(m.Admission.Capacity))
	put("admission_in_flight", uint64(m.Admission.InFlight))
	put("admission_queued", uint64(m.Admission.Queued))
	put("admission_admitted_total", m.Admission.Admitted)
	put("admission_rejected_total", m.Admission.Rejected)
	put("admission_cancelled_total", m.Admission.Cancelled)
	put("job_cache_hits_total", m.Tier.Hits)
	put("job_cache_misses_total", m.Tier.Misses)
	put("job_cache_waits_total", m.Tier.Waits)
	put("job_cache_evictions_total", m.Tier.Evictions)
	put("job_cache_entries", uint64(m.Tier.Entries))
	put("compile_pool_hits_total", m.Pools.Hits)
	put("compile_pool_misses_total", m.Pools.Misses)
	put("compile_pool_waits_total", m.Pools.Waits)
	put("engine_stab_programs_total", uint64(m.Engine.StabPrograms))
	put("engine_stab_fallbacks_total", uint64(m.Engine.StabFallbacks))
	put("engine_stab_prefix_steps_total", uint64(m.Engine.StabPrefixSteps))
	put("engine_stab_trials_total", uint64(m.Engine.StabTrials))
	put("engine_stab_max_words", uint64(m.Engine.StabMaxWords))
	put("engine_trials_dominant_total", uint64(m.Engine.FullDominantTrials))
	put("engine_trials_divergent_total", uint64(m.Engine.DivergentTrials))
	put("engine_batch_buckets_total", uint64(m.Engine.BatchBuckets))
	put("engine_batch_units_total", uint64(m.Engine.BatchUnits))
	put("engine_batch_trials_total", uint64(m.Engine.BatchTrials))
	put("engine_batch_lane_clones_total", uint64(m.Engine.BatchLaneClones))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
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
