// Package server is the resident OHA analysis service: it keeps
// compiled programs, invariant databases, and memoized static-analysis
// artifacts warm across requests, and runs profile and analysis jobs
// asynchronously on a bounded worker pool.
//
// The paper's pipeline is batch-shaped — profile, solve the predicated
// static analysis, then run speculative dynamic analyses — but every
// phase after the first is a pure function of (program, invariant DB,
// budget). The daemon exploits that: programs are content-addressed so
// identical submissions share one compilation, invariant databases are
// versioned so jobs pin exactly what they were predicated on, and all
// static artifacts flow through one oha/internal/artifacts cache so the
// second job on a (program, DB) pair pays none of the static cost.
//
// HTTP surface (JSON unless noted):
//
//	POST /v1/programs            {"source": …} → stored program (content-addressed ID)
//	GET  /v1/programs            list
//	GET  /v1/programs/{id}       one program's metadata
//	PUT  /v1/invariants/{id}     text DB body → new version
//	POST /v1/invariants/{id}/merge  text DB body → merged new version
//	GET  /v1/invariants/{id}[?version=N]  text DB (canonical format)
//	POST /v1/jobs                job request → 202 {job}, 429 on backpressure, 503 when draining
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/result    job result (202 until terminal)
//	GET  /speculation            adaptive-speculation status (all managers, or one with ?program=&invariants=)
//	GET  /healthz                liveness (503 when draining)
//	GET  /metrics                Prometheus text exposition
//
// Adaptive speculation: an analysis job with "adapt": true routes
// through a per-(program, invariant DB version) adapt.Manager — a
// mis-speculated run re-executes under a database without the refuted
// facts, and the manager publishes that database as the next
// generation, which later jobs run under. PUT/merge of invariants
// accept a ?program= digest binding; merging databases profiled from
// different programs is rejected with 409 Conflict.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"oha/internal/adapt"
	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/metrics"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of concurrent analysis jobs (<= 0: 1).
	Workers int
	// QueueSize bounds the queued-but-not-running jobs (<= 0: 64).
	QueueSize int
	// JobTimeout is the per-job execution ceiling (0: 60s). Job
	// requests may lower it, never raise it.
	JobTimeout time.Duration
	// MaxSteps bounds each analyzed execution (0: interp default).
	MaxSteps uint64
	// Cache is the shared static-artifact cache (nil: a fresh
	// memory-only cache).
	Cache *artifacts.Cache
	// StateDir, when non-empty, persists invariant-DB versions as text
	// files under it and reloads them on start.
	StateDir string
	// StaticWorkers bounds the parallel static solvers (0: GOMAXPROCS,
	// 1: sequential).
	StaticWorkers int
	// NoFastPath disables the compiled engine's inline analysis fast
	// paths for every job (a debugging/ablation toggle — results are
	// identical either way, only tracing speed changes).
	NoFastPath bool
	// Programs overrides the program state tier (nil: an in-process
	// ProgramStore). A fleet node plugs in a digest-routed remote tier
	// here, turning the daemon into a stateless frontend.
	Programs ProgramBackend
	// Invariants overrides the invariant-database state tier (nil: an
	// in-process InvariantStore persisting under StateDir).
	Invariants InvariantBackend
	// OnGeneration, when non-nil, is invoked after an adaptive manager
	// publishes a refined invariant-DB generation (generation >= 2,
	// i.e. a hot-swap actually happened). A fleet node uses it to push
	// adapt-refined databases into the replicated invariant log; the
	// callback runs on the job goroutine and must not block for long.
	OnGeneration func(invariantsID, programID string, generation int, db *invariants.DB)
}

// Server is the analysis daemon. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	cfg      Config
	programs ProgramBackend
	invs     InvariantBackend
	pool     *Pool
	cache    *artifacts.Cache
	reg      *metrics.Registry
	mux      *http.ServeMux

	httpRequests  *metrics.CounterVec
	jobsSubmitted *metrics.CounterVec
	jobsRejected  *metrics.Counter
	jobsDone      *metrics.Counter
	jobsFailed    *metrics.Counter
	jobLatency    *metrics.Histogram

	// Speculative-dispatch counters, summed over every analyzed
	// execution an analysis job runs (including retries and sound
	// re-executions after a rollback).
	icHits   *metrics.Counter
	icMisses *metrics.Counter
	icDeopts *metrics.Counter
	icFused  *metrics.Counter

	// Analysis fast-path counters, labeled by analysis client name
	// (race/nullcheck/slice): events settled inline in the engine's dispatch
	// loop vs. delivered through the Tracer interface slow path.
	fpHits *metrics.CounterVec
	fpSlow *metrics.CounterVec

	// static configures the static pipeline for every job.
	static core.StaticConfig

	// Adaptive speculation state: one manager per (program, invariant
	// DB version) pair, created lazily by the first adapt-enabled job
	// and kept for the daemon's lifetime so the violation ledger and
	// generation history span requests.
	adaptMetrics *adapt.Metrics
	adaptMu      sync.Mutex
	adapters     map[adaptKey]*adapt.Manager
	adaptOrder   []adaptKey
}

// adaptKey identifies one adaptive manager: the program digest plus
// the invariant DB (resolved to a concrete version) it speculates on.
type adaptKey struct {
	program    string
	invariants string
	version    int
}

// New builds the daemon: stores, worker pool, metrics, and routes.
func New(cfg Config) (*Server, error) {
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 60 * time.Second
	}
	cache := cfg.Cache
	if cache == nil {
		cache = artifacts.New("")
	}
	invs := cfg.Invariants
	if invs == nil {
		local, err := OpenInvariantStore(cfg.StateDir)
		if err != nil {
			return nil, fmt.Errorf("server: open invariant store: %w", err)
		}
		invs = local
	}
	programs := cfg.Programs
	if programs == nil {
		programs = NewProgramStore()
	}
	s := &Server{
		cfg:      cfg,
		programs: programs,
		invs:     invs,
		cache:    cache,
		reg:      metrics.NewRegistry(),
		mux:      http.NewServeMux(),
		adapters: map[adaptKey]*adapt.Manager{},
		static:   core.StaticConfig{Cache: cache, Workers: cfg.StaticWorkers, NoFastPath: cfg.NoFastPath},
	}
	s.adaptMetrics = adapt.NewMetrics(s.reg)
	s.httpRequests = s.reg.NewCounterVec("ohad_http_requests_total", "HTTP requests by route", "route")
	s.jobsSubmitted = s.reg.NewCounterVec("ohad_jobs_submitted_total", "accepted jobs by kind", "kind")
	s.jobsRejected = s.reg.NewCounter("ohad_jobs_rejected_total", "jobs rejected by queue backpressure")
	s.jobsDone = s.reg.NewCounter("ohad_jobs_done_total", "jobs finished successfully")
	s.jobsFailed = s.reg.NewCounter("ohad_jobs_failed_total", "jobs finished in error (incl. timeouts)")
	s.jobLatency = s.reg.NewHistogram("ohad_job_latency_seconds", "job execution latency")
	s.icHits = s.reg.NewCounter("oha_ic_hits_total", "inline-cache dispatch hits across analyzed executions")
	s.icMisses = s.reg.NewCounter("oha_ic_misses_total", "inline-cache dispatch misses (deoptimized sites) across analyzed executions")
	s.icDeopts = s.reg.NewCounter("oha_ic_deopts_total", "inline-cache site deoptimizations across analyzed executions")
	s.icFused = s.reg.NewCounter("oha_fused_instructions", "fused superinstruction executions across analyzed executions")
	s.fpHits = s.reg.NewCounterVec("oha_trace_fastpath_hits_total", "analysis events settled inline by the engine's fast path", "client")
	s.fpSlow = s.reg.NewCounterVec("oha_trace_fastpath_slow_total", "analysis events delivered through the Tracer slow path", "client")
	s.pool = NewPool(PoolConfig{
		Workers:    cfg.Workers,
		QueueSize:  cfg.QueueSize,
		JobTimeout: cfg.JobTimeout,
		Hooks: PoolHooks{
			Finished: func(j *Job, d time.Duration, failed bool) {
				s.jobLatency.Observe(d.Seconds())
				if failed {
					s.jobsFailed.Inc()
				} else {
					s.jobsDone.Inc()
				}
			},
		},
	})
	s.reg.NewGaugeFunc("ohad_queue_depth", "jobs waiting for a worker",
		func() float64 { return float64(s.pool.QueueDepth()) })
	s.reg.NewGaugeFunc("ohad_jobs_running", "jobs currently executing",
		func() float64 { return float64(s.pool.Running()) })
	s.reg.NewGaugeFunc("ohad_programs", "stored programs",
		func() float64 { return float64(s.programs.Len()) })
	s.reg.NewGaugeFunc("ohad_invariant_dbs", "distinct invariant-DB ids",
		func() float64 { return float64(s.invs.Len()) })
	registerCacheMetrics(s.reg, cache)
	s.reg.NewCounterFunc("oha_artifacts_evictions_total",
		"artifact-cache entries dropped by the LRU bound", func() uint64 { return cache.Stats().Evictions })
	s.reg.NewCounterFunc("oha_artifacts_disk_hits_total",
		"artifact lookups served from the on-disk tier", func() uint64 { return cache.Stats().DiskHits })
	s.reg.NewCounterFunc("oha_artifacts_disk_misses_total",
		"artifact disk probes that found no usable file", func() uint64 { return cache.Stats().DiskMisses })
	s.reg.NewCounterFunc("oha_artifacts_disk_prunes_total",
		"artifact disk files removed by pruning", func() uint64 { return cache.Stats().DiskPrunes })
	s.routes()
	return s, nil
}

// registerCacheMetrics bridges the artifact cache's Collect export hook
// into polled gauges, one per statistic the cache reports.
func registerCacheMetrics(reg *metrics.Registry, cache *artifacts.Cache) {
	var names []string
	cache.Collect(func(name string, _ float64) { names = append(names, name) })
	for _, name := range names {
		name := name
		reg.NewGaugeFunc("ohad_artifact_cache_"+name, "artifact cache "+name, func() float64 {
			var v float64
			cache.Collect(func(n string, val float64) {
				if n == name {
					v = val
				}
			})
			return v
		})
	}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Programs exposes the program state tier (for embedding and tests).
func (s *Server) Programs() ProgramBackend { return s.programs }

// Invariants exposes the invariant state tier.
func (s *Server) Invariants() InvariantBackend { return s.invs }

// Pool exposes the job pool.
func (s *Server) Pool() *Pool { return s.pool }

// Metrics exposes the metrics registry (for embedding extra metrics).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Cache exposes the shared artifact cache (for pruning and embedding).
func (s *Server) Cache() *artifacts.Cache { return s.cache }

// Shutdown drains the job pool: new submissions are rejected with 503
// immediately, queued and running jobs run to completion (bounded by
// their own timeouts), or until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.pool.Shutdown(ctx)
}

// handle registers a route with a request-count metric labeled by the
// route pattern.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	c := s.httpRequests.With(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h(w, r)
	})
}

func (s *Server) routes() {
	s.handle("POST /v1/programs", s.handleSubmitProgram)
	s.handle("GET /v1/programs", s.handleListPrograms)
	s.handle("GET /v1/programs/{id}", s.handleGetProgram)
	s.handle("PUT /v1/invariants/{id}", s.handlePutInvariants)
	s.handle("POST /v1/invariants/{id}/merge", s.handleMergeInvariants)
	s.handle("GET /v1/invariants/{id}", s.handleGetInvariants)
	s.handle("POST /v1/jobs", s.handleSubmitJob)
	s.handle("GET /v1/jobs/{id}", s.handleJobStatus)
	s.handle("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.handle("GET /speculation", s.handleSpeculation)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("GET /metrics", s.handleMetrics)
}

// ------------------------------------------------------------ helpers

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ----------------------------------------------------------- programs

type submitProgramRequest struct {
	Source string `json:"source"`
}

type programResponse struct {
	*StoredProgram
	Created bool `json:"created"` // false: identical program was already stored
}

func (s *Server) handleSubmitProgram(w http.ResponseWriter, r *http.Request) {
	var req submitProgramRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "missing source")
		return
	}
	sp, created, err := s.programs.Submit(req.Source)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "compile: %v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, programResponse{StoredProgram: sp, Created: created})
}

func (s *Server) handleListPrograms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.programs.List())
}

func (s *Server) handleGetProgram(w http.ResponseWriter, r *http.Request) {
	sp := s.programs.Get(r.PathValue("id"))
	if sp == nil {
		writeError(w, http.StatusNotFound, "unknown program")
		return
	}
	writeJSON(w, http.StatusOK, sp)
}

// --------------------------------------------------------- invariants

type invariantsResponse struct {
	ID       string            `json:"id"`
	Version  int               `json:"version"`
	Versions int               `json:"versions"`
	Counts   invariants.Counts `json:"counts"`
}

func (s *Server) readDBBody(w http.ResponseWriter, r *http.Request) (*invariants.DB, bool) {
	db, err := invariants.Parse(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse invariants: %v", err)
		return nil, false
	}
	return db, true
}

func (s *Server) handlePutInvariants(w http.ResponseWriter, r *http.Request) {
	s.storeInvariants(w, r, s.invs.PutFor)
}

func (s *Server) handleMergeInvariants(w http.ResponseWriter, r *http.Request) {
	s.storeInvariants(w, r, s.invs.MergeFor)
}

func (s *Server) storeInvariants(w http.ResponseWriter, r *http.Request, op func(string, string, *invariants.DB) (int, error)) {
	id := r.PathValue("id")
	db, ok := s.readDBBody(w, r)
	if !ok {
		return
	}
	// ?program=<digest> binds the entry to the program the DB was
	// profiled from; a conflicting binding is a 409, not a bad request:
	// both sides are well-formed, they just describe different programs.
	version, err := op(id, r.URL.Query().Get("program"), db)
	if errors.Is(err, ErrProgramMismatch) {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, invariantsResponse{
		ID: id, Version: version, Versions: s.invs.Versions(id), Counts: db.Count(),
	})
}

func (s *Server) handleGetInvariants(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	version := 0
	if q := r.URL.Query().Get("version"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad version %q", q)
			return
		}
		version = v
	}
	db, v, ok := s.invs.Get(id, version)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown invariants %q (version %d)", id, version)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Invariants-Version", strconv.Itoa(v))
	db.WriteTo(w) //nolint:errcheck // response already committed
}

// --------------------------------------------------------------- jobs

// JobRequest is the wire form of one analysis job.
type JobRequest struct {
	// Kind is "profile", "race", "slice", "nullcheck", or "refine".
	Kind string `json:"kind"`
	// ProgramID is the content address returned by POST /v1/programs.
	ProgramID string `json:"program_id"`
	// Inputs is the analyzed execution's input vector.
	Inputs []int64 `json:"inputs"`
	// Seed is the schedule seed (0: 1).
	Seed uint64 `json:"seed"`
	// TimeoutMS lowers the server's per-job timeout for this job.
	TimeoutMS int64 `json:"timeout_ms"`

	// InvariantsID/InvariantsVersion name the invariant DB predicating
	// a race, slice or nullcheck job (version 0: latest). Resolved when the job
	// starts, so a job queued behind the profile job that produces the
	// DB sees it.
	InvariantsID      string `json:"invariants_id"`
	InvariantsVersion int    `json:"invariants_version"`

	// Profile jobs: maximum profiling executions (0: 32) and the
	// invariant-store ID to save the result under (default
	// "p-<program prefix>"). Merge folds into the existing latest
	// version instead of storing a standalone one.
	Runs   int    `json:"runs"`
	SaveAs string `json:"save_as"`
	Merge  bool   `json:"merge"`

	// Analysis jobs: Baseline runs the client's unoptimized sound
	// analysis (FastTrack / full Giri / always-check; no invariants
	// needed).
	Baseline bool `json:"baseline"`

	// Adapt routes a race, slice or nullcheck job through the adaptive
	// speculation manager for (program, invariant DB version): the
	// facts a mis-speculated run's rollback refuted are refined away,
	// and the refined database is published as the next generation.
	// Refine jobs also use the manager. Ignored for baseline jobs.
	Adapt bool `json:"adapt"`

	// Slice jobs: index into the program's print statements (nil:
	// last) and the context-sensitive analysis budget (0: 4096).
	Criterion *int `json:"criterion"`
	Budget    int  `json:"budget"`
}

// ProfileJobResult is the result payload of a profile job.
type ProfileJobResult struct {
	Runs         int               `json:"runs"`
	InvariantsID string            `json:"invariants_id"`
	Version      int               `json:"version"`
	Counts       invariants.Counts `json:"counts"`
}

// JobOutcome is the speculation summary every analysis job result
// carries: whether the run rolled back and why, and in adaptive mode
// the generation the manager published once the job's refinements were
// reconciled.
type JobOutcome struct {
	RolledBack bool `json:"rolled_back"`
	// Violation is the display string; ViolationKind/ViolationSite the
	// structured record (empty / absent without a rollback).
	Violation     string             `json:"violation,omitempty"`
	ViolationKind core.ViolationKind `json:"violation_kind,omitempty"`
	ViolationSite int                `json:"violation_site,omitempty"`
	// RolledBackTo names what re-executed a rolled-back run (a refined
	// generation or the sound analysis); Refuted are the fact keys of
	// every fact its attempts refuted.
	RolledBackTo core.RollbackTarget `json:"rolled_back_to,omitempty"`
	Refuted      []string            `json:"refuted,omitempty"`
	Generation   int                 `json:"generation,omitempty"`
}

// RaceJobResult is the result payload of a race job.
type RaceJobResult struct {
	Races []string `json:"races"`
	JobOutcome
	InstrumentedOps uint64  `json:"instrumented_ops"`
	FTChecks        uint64  `json:"ft_checks"`
	CheckEvents     uint64  `json:"check_events"`
	Output          []int64 `json:"output"`
}

// SliceJobResult is the result payload of a slice job.
type SliceJobResult struct {
	CriterionIndex int    `json:"criterion_index"`
	CriterionLine  int    `json:"criterion_line"`
	AnalysisType   string `json:"analysis_type"`
	SliceInstrs    int    `json:"slice_instrs"`
	DynNodes       int    `json:"dyn_nodes"`
	TraceNodes     int    `json:"trace_nodes"`
	// Lines are the source lines in the slice, ascending.
	Lines []int `json:"lines"`
	JobOutcome
}

// NullJobResult is the result payload of a nullcheck job.
type NullJobResult struct {
	// NilSites are the deref sites (instruction IDs) observed accessing
	// nil, the client's verdict; NilDerefs the total occurrence count.
	NilSites  []int  `json:"nil_sites"`
	NilDerefs uint64 `json:"nil_derefs"`
	JobOutcome
	// DischargedChecks / DerefSites describe the static phase;
	// CheckedDerefs counts the residual checks actually executed.
	DischargedChecks int     `json:"discharged_checks"`
	DerefSites       int     `json:"deref_sites"`
	CheckedDerefs    uint64  `json:"checked_derefs"`
	CheckEvents      uint64  `json:"check_events"`
	Output           []int64 `json:"output"`
}

// RefineJobResult is the result payload of a refine job: an explicit
// reconcile of any pending invariant refinements.
type RefineJobResult struct {
	// Swapped reports whether a new generation was published by THIS
	// job (false when nothing was pending or another reconcile ran).
	Swapped bool `json:"swapped"`
	// Generation is the published generation after the reconcile.
	Generation int `json:"generation"`
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sp := s.programs.Get(req.ProgramID)
	if sp == nil {
		writeError(w, http.StatusNotFound, "unknown program %q", req.ProgramID)
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	var fn func(ctx context.Context) (any, error)
	switch JobKind(req.Kind) {
	case JobProfile:
		fn = s.profileJob(sp, req)
	case JobRefine:
		if req.InvariantsID == "" {
			writeError(w, http.StatusBadRequest, "refine job needs invariants_id")
			return
		}
		fn = s.refineJob(sp, req)
	default:
		if !slices.Contains(core.ClientNames, req.Kind) {
			writeError(w, http.StatusBadRequest, "unknown job kind %q", req.Kind)
			return
		}
		if req.InvariantsID == "" && !req.Baseline {
			writeError(w, http.StatusBadRequest, "%s job needs invariants_id (or baseline=true)", req.Kind)
			return
		}
		fn = func(ctx context.Context) (any, error) { return s.runAnalysis(ctx, sp, req) }
	}
	job, err := s.pool.Submit(JobKind(req.Kind), time.Duration(req.TimeoutMS)*time.Millisecond, fn)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.jobsRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.jobsSubmitted.With(req.Kind).Inc()
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job := s.pool.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job := s.pool.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	res, state, errMsg := job.Result()
	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, map[string]any{"id": job.ID, "state": state, "result": res})
	case StateFailed:
		writeJSON(w, http.StatusOK, map[string]any{"id": job.ID, "state": state, "error": errMsg})
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{"id": job.ID, "state": state})
	}
}

// RetryAfter estimates, in whole seconds, how long a client rejected
// with 429 should wait before resubmitting: the time for the current
// backlog to drain through the workers at the observed mean job
// latency, clamped to [1, 30]. With no completed jobs yet the estimate
// is the floor.
func (s *Server) RetryAfter() int {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	mean := 0.25 // optimistic prior before any job has finished
	if n := s.jobLatency.Count(); n > 0 {
		mean = s.jobLatency.Sum() / float64(n)
	}
	backlog := float64(s.pool.QueueDepth()) + float64(s.pool.Running())
	sec := int(mean * backlog / float64(workers))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// runOpts builds the per-run options for one job execution.
func (s *Server) runOpts(ctx context.Context) core.RunOptions {
	return core.RunOptions{MaxSteps: s.cfg.MaxSteps, Ctx: ctx}
}

// observeIC folds one run's speculative-dispatch and fast-path
// counters into the daemon-wide metrics; client is the name of the
// analysis client the run served.
func (s *Server) observeIC(client string, ic interp.ICStats) {
	s.icHits.Add(ic.Hits)
	s.icMisses.Add(ic.Misses)
	s.icDeopts.Add(ic.Deopts)
	s.icFused.Add(ic.Fused)
	s.fpHits.With(client).Add(ic.FastPath.Hits)
	s.fpSlow.With(client).Add(ic.FastPath.Slow)
}

// resolveDB fetches the invariant DB a job is predicated on.
func (s *Server) resolveDB(req JobRequest) (*invariants.DB, int, error) {
	db, v, ok := s.invs.Get(req.InvariantsID, req.InvariantsVersion)
	if !ok {
		return nil, 0, fmt.Errorf("unknown invariants %q (version %d)", req.InvariantsID, req.InvariantsVersion)
	}
	return db, v, nil
}

// ------------------------------------------------ adaptive speculation

// adapter returns (creating on first use) the adaptive manager for the
// job's (program, resolved invariant DB version) pair. Managers share
// the server's artifact cache — re-analysis after a refinement only
// re-solves the invalidated predicated kinds — and one adapt.Metrics
// family on the server registry.
func (s *Server) adapter(sp *StoredProgram, req JobRequest) (*adapt.Manager, error) {
	db, version, err := s.resolveDB(req)
	if err != nil {
		return nil, err
	}
	if bound := s.invs.ProgramOf(req.InvariantsID); bound != "" && bound != sp.ID {
		return nil, fmt.Errorf("%w: invariants %q are for program %s, job targets %s",
			ErrProgramMismatch, req.InvariantsID, shortID(bound), shortID(sp.ID))
	}
	key := adaptKey{program: sp.ID, invariants: req.InvariantsID, version: version}
	s.adaptMu.Lock()
	defer s.adaptMu.Unlock()
	m, ok := s.adapters[key]
	if !ok {
		m = adapt.New(sp.Prog, db, adapt.Options{
			Metrics: s.adaptMetrics,
			Static:  s.static,
		})
		s.adapters[key] = m
		s.adaptOrder = append(s.adaptOrder, key)
	}
	return m, nil
}

// notifyGeneration reports an adaptive manager's current database to
// the OnGeneration hook. Generation 1 is skipped: that is the profiled
// database already in the invariant store; only refined hot-swaps are
// news. Repeat notifications for the same generation are fine — the
// fleet tier dedups by database equality.
func (s *Server) notifyGeneration(invID, progID string, m *adapt.Manager) {
	if s.cfg.OnGeneration == nil {
		return
	}
	if gen := m.Generation(); gen > 1 {
		s.cfg.OnGeneration(invID, progID, gen, m.DB())
	}
}

// submitRefine queues any reconcile still pending after an adaptive
// job's run (possible when a concurrent reconcile was in flight when
// the run tried its own). A full or draining queue falls
// back to reconciling inline: a pending refinement must never be lost,
// or the next run pays the rollback the refinement was meant to avoid.
func (s *Server) submitRefine(m *adapt.Manager, invID, progID string) {
	fn := func(ctx context.Context) (any, error) { return s.reconcile(ctx, m, invID, progID) }
	if _, err := s.pool.Submit(JobRefine, 0, fn); err != nil {
		s.reconcile(context.Background(), m, invID, progID) //nolint:errcheck // best effort: the next job retries
	}
}

// refineJob explicitly reconciles a manager's pending refinements.
func (s *Server) refineJob(sp *StoredProgram, req JobRequest) func(ctx context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		m, err := s.adapter(sp, req)
		if err != nil {
			return nil, err
		}
		return s.reconcile(ctx, m, req.InvariantsID, sp.ID)
	}
}

// reconcile publishes m's pending refinements as a new generation and
// reports it to the OnGeneration hook.
func (s *Server) reconcile(ctx context.Context, m *adapt.Manager, invID, progID string) (any, error) {
	swapped, err := m.Reconcile(ctx)
	if err != nil {
		return nil, err
	}
	if swapped {
		s.notifyGeneration(invID, progID, m)
	}
	return RefineJobResult{Swapped: swapped, Generation: m.Generation()}, nil
}

// speculationEntry is one manager's row in GET /speculation.
type speculationEntry struct {
	ProgramID         string       `json:"program_id"`
	InvariantsID      string       `json:"invariants_id"`
	InvariantsVersion int          `json:"invariants_version"`
	Status            adapt.Status `json:"status"`
}

// handleSpeculation serves the adaptive-speculation status. With both
// ?program= and ?invariants= (and optional ?version=) it returns the
// single matching adapt.Status (404 if absent); otherwise it lists
// every manager in creation order.
func (s *Server) handleSpeculation(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	program, invs := q.Get("program"), q.Get("invariants")
	version := 0
	if v := q.Get("version"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad version %q", v)
			return
		}
		version = n
	}
	s.adaptMu.Lock()
	keys := append([]adaptKey(nil), s.adaptOrder...)
	managers := make([]*adapt.Manager, len(keys))
	for i, k := range keys {
		managers[i] = s.adapters[k]
	}
	s.adaptMu.Unlock()

	if program != "" && invs != "" {
		// version 0 means "any": with several versions adapted, the
		// newest manager wins, matching the store's latest-first reads.
		best := -1
		for i, k := range keys {
			if k.program != program || k.invariants != invs {
				continue
			}
			if version != 0 && k.version != version {
				continue
			}
			if best < 0 || k.version > keys[best].version {
				best = i
			}
		}
		if best < 0 {
			writeError(w, http.StatusNotFound, "no adaptive manager for program %q invariants %q", program, invs)
			return
		}
		writeJSON(w, http.StatusOK, speculationEntry{
			ProgramID:         keys[best].program,
			InvariantsID:      keys[best].invariants,
			InvariantsVersion: keys[best].version,
			Status:            managers[best].Status(),
		})
		return
	}
	entries := make([]speculationEntry, 0, len(keys))
	for i, k := range keys {
		entries = append(entries, speculationEntry{
			ProgramID:         k.program,
			InvariantsID:      k.invariants,
			InvariantsVersion: k.version,
			Status:            managers[i].Status(),
		})
	}
	// Speculative-dispatch counters are server-global (they aggregate
	// every analyzed execution), so they ride on the listing rather
	// than any one manager's row.
	writeJSON(w, http.StatusOK, map[string]any{
		"managers": entries,
		"dispatch": map[string]uint64{
			"ic_hits":            s.icHits.Value(),
			"ic_misses":          s.icMisses.Value(),
			"ic_deopts":          s.icDeopts.Value(),
			"fused_instructions": s.icFused.Value(),
		},
	})
}

func (s *Server) profileJob(sp *StoredProgram, req JobRequest) func(ctx context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		runs := req.Runs
		if runs <= 0 {
			runs = 32
		}
		pr, err := core.ProfileWith(sp.Prog, func(run int) core.Execution {
			return core.Execution{Inputs: req.Inputs, Seed: uint64(run + 1)}
		}, core.ProfileOptions{MaxRuns: runs, Workers: 1, Cache: s.cache, Ctx: ctx, Code: core.BaseImage(sp.Prog, s.cache)})
		if err != nil {
			return nil, err
		}
		saveAs := req.SaveAs
		if saveAs == "" {
			saveAs = "p-" + shortID(sp.ID)
		}
		// Profile jobs always bind the saved DB to the profiled program
		// digest: the store then rejects cross-program merges with 409.
		op := s.invs.PutFor
		if req.Merge {
			op = s.invs.MergeFor
		}
		version, err := op(saveAs, sp.ID, pr.DB)
		if err != nil {
			return nil, err
		}
		return ProfileJobResult{
			Runs:         pr.Runs,
			InvariantsID: saveAs,
			Version:      version,
			Counts:       pr.DB.Count(),
		}, nil
	}
}

// runAnalysis runs one analysis job through its client's entry point
// and maps the result to the client's wire payload.
func (s *Server) runAnalysis(ctx context.Context, sp *StoredProgram, req JobRequest) (any, error) {
	switch JobKind(req.Kind) {
	case JobRace:
		return analyze(ctx, s, sp, req, core.Race(), RaceResult)
	case JobNull:
		return analyze(ctx, s, sp, req, core.Null(), NullResult)
	case JobSlice:
		idx, crit, err := core.SliceCriterion(sp.Prog, req.Criterion)
		if err != nil {
			return nil, err
		}
		budget := req.Budget
		if budget <= 0 {
			budget = 4096
		}
		return analyze(ctx, s, sp, req, core.Slice(crit, budget), func(a adapt.Result[*core.OptSlice, *core.SliceReport]) SliceJobResult {
			return SliceResult(sp.Prog, idx, crit, a)
		})
	}
	return nil, fmt.Errorf("no result builder for job kind %q", req.Kind)
}

// analyze runs one analysis job in the request's mode (see
// adapt.Analyze) — the unoptimized baseline, one run under the
// (program, DB version) adaptive manager, or one plain optimistic run
// under the daemon's static config — and builds its wire result. The
// report's dispatch counters, which include every aborted attempt's,
// are folded into the metrics under the client's name.
func analyze[D core.Detector[R], R core.Report, W any](ctx context.Context, s *Server, sp *StoredProgram, req JobRequest, a core.Analysis[D, R], result func(adapt.Result[D, R]) W) (any, error) {
	var mode adapt.Mode
	var err error
	switch {
	case req.Baseline:
		mode.Baseline = true
	case req.Adapt:
		mode.Manager, err = s.adapter(sp, req)
	default:
		mode.DB, _, err = s.resolveDB(req)
		mode.Static, mode.Metrics = s.static, s.adaptMetrics
	}
	if err != nil {
		return nil, err
	}
	res, err := adapt.Analyze(sp.Prog, a, mode, core.Execution{Inputs: req.Inputs, Seed: req.Seed}, s.runOpts(ctx))
	if err != nil {
		return nil, err
	}
	if m := mode.Manager; m != nil {
		if m.Pending() {
			s.submitRefine(m, req.InvariantsID, sp.ID)
		}
		s.notifyGeneration(req.InvariantsID, sp.ID, m)
	}
	s.observeIC(a.Name, res.Report.Base().IC)
	return result(res), nil
}

// outcome summarizes a's speculation for the job result.
func outcome[D core.Detector[R], R core.Report](a adapt.Result[D, R]) JobOutcome {
	out := a.Report.Base()
	var refuted []string
	for _, v := range out.Refuted {
		refuted = append(refuted, v.FactKey())
	}
	return JobOutcome{
		RolledBack:    out.RolledBack,
		Violation:     out.Violation.String(),
		ViolationKind: out.Violation.Kind,
		ViolationSite: out.Violation.Site,
		RolledBackTo:  out.RolledBackTo,
		Refuted:       refuted,
		Generation:    a.Generation,
	}
}

// RaceResult is a race analysis's wire result.
func RaceResult(a adapt.Result[*core.OptFT, *core.RaceReport]) RaceJobResult {
	rep := a.Report
	races := make([]string, 0, len(rep.Details))
	for _, rc := range rep.Details {
		races = append(races, rc.String())
	}
	return RaceJobResult{
		Races:           races,
		JobOutcome:      outcome(a),
		InstrumentedOps: rep.Stats.InstrumentedOps(),
		FTChecks:        rep.FTChecks,
		CheckEvents:     rep.CheckEvents,
		Output:          rep.Output,
	}
}

// NullResult is a nullcheck analysis's wire result.
func NullResult(a adapt.Result[*core.OptNull, *core.NullReport]) NullJobResult {
	rep := a.Report
	return NullJobResult{
		NilSites:         rep.NilSites,
		NilDerefs:        rep.NilDerefs,
		JobOutcome:       outcome(a),
		DischargedChecks: rep.DischargedChecks,
		DerefSites:       rep.DerefSites,
		CheckedDerefs:    rep.CheckedDerefs,
		CheckEvents:      rep.CheckEvents,
		Output:           rep.Output,
	}
}

// SliceResult is the wire result of slicing prog from crit, its idx-th
// print.
func SliceResult(prog *ir.Program, idx int, crit *ir.Instr, a adapt.Result[*core.OptSlice, *core.SliceReport]) SliceJobResult {
	rep := a.Report
	res := SliceJobResult{
		CriterionIndex: idx,
		CriterionLine:  crit.Pos.Line,
		TraceNodes:     rep.TraceNodes,
		JobOutcome:     outcome(a),
	}
	if a.Detector != nil {
		res.AnalysisType = string(a.Detector.AT)
	}
	if rep.Slice != nil {
		res.SliceInstrs = rep.Slice.Size()
		res.DynNodes = rep.Slice.DynNodes
		lines := map[int]bool{}
		rep.Slice.Instrs.ForEach(func(id int) bool {
			lines[prog.Instrs[id].Pos.Line] = true
			return true
		})
		for l := range lines {
			res.Lines = append(res.Lines, l)
		}
		sort.Ints(res.Lines)
	}
	return res
}

// shortID returns a 12-character prefix of a content address.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// -------------------------------------------------------------- infra

// handleHealthz is LIVENESS: it answers 200 as long as the process can
// serve HTTP at all, including while draining — a draining node is
// alive, it just must not receive new work. Routers consult /readyz
// for that.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.pool.Draining(),
		"programs": s.programs.Len(),
		"queued":   s.pool.QueueDepth(),
		"running":  s.pool.Running(),
	})
}

// handleReadyz is READINESS: 503 from the moment SIGTERM drain begins,
// so a fleet router stops placing jobs on this node while its queued
// and running jobs finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.pool.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ready",
		"queued":  s.pool.QueueDepth(),
		"running": s.pool.Running(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteTo(w) //nolint:errcheck // response already committed
}
