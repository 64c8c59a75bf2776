package adapt

import (
	"oha/internal/core"
	"oha/internal/metrics"
)

// Metrics is the adaptive layer's instrumentation, shared by every
// Manager bound to one registry (the daemon registers one set and
// hands it to each per-(program, DB) manager). The run-level families
// carry a client label — one metric family serves every registered
// analysis client (race, slice, nullcheck) instead of stamping the
// client into per-family metric names. All fields are non-nil after
// NewMetrics; a nil *Metrics disables recording.
type Metrics struct {
	// Runs / Rollbacks count observed optimistic runs and their
	// mis-speculations (all generations), by client.
	Runs      *metrics.CounterVec
	Rollbacks *metrics.CounterVec
	// PostRefineRuns / PostRefineRollbacks count only runs observed
	// under a refined (generation > 1) configuration — their ratio is
	// the post-refinement rollback rate the adaptation is supposed to
	// drive toward zero.
	PostRefineRuns      *metrics.CounterVec
	PostRefineRollbacks *metrics.CounterVec
	// Violations counts refuted facts by client and invariant kind:
	// every fact a run's rollback chain refuted.
	Violations *metrics.CounterVec
	// Refinements counts deployed refinement generations (hot-swaps).
	// Generations are per-manager, not per-client: one swap serves all
	// clients, so these two stay unlabeled.
	Refinements *metrics.Counter
	// ResolveSeconds observes the latency of each background
	// re-analysis (static re-solve + recompile) that produced a
	// generation.
	ResolveSeconds *metrics.Histogram
	// StaticPhase observes the wall-clock seconds of each static phase
	// by phase and client: a client's detector build under its
	// core.Analysis Phase, and each reconcile that deploys a rollback
	// chain's generation instead of building one under "masks". Every
	// detector a generation gets is one observation under one phase.
	StaticPhase *metrics.HistogramVec
}

// NewMetrics registers the adaptive metrics on r (nil r: working but
// unregistered metrics, matching the metrics package convention).
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Runs:                r.NewCounterVec("oha_adapt_runs_total", "Optimistic runs observed by the adaptive manager.", "client"),
		Rollbacks:           r.NewCounterVec("oha_adapt_rollbacks_total", "Observed runs that rolled back.", "client"),
		PostRefineRuns:      r.NewCounterVec("oha_adapt_post_refine_runs_total", "Runs observed under a refined (generation > 1) configuration.", "client"),
		PostRefineRollbacks: r.NewCounterVec("oha_adapt_post_refine_rollbacks_total", "Refined-configuration runs that still rolled back.", "client"),
		Violations:          r.NewCounterVec("oha_adapt_violations_total", "Invariant violations by client and kind.", "client", "kind"),
		Refinements:         r.NewCounter("oha_adapt_refinements_total", "Refinement generations deployed (hot-swaps)."),
		ResolveSeconds:      r.NewHistogram("oha_adapt_resolve_seconds", "Latency of the background re-analysis producing each generation."),
		StaticPhase:         r.NewHistogramVec("oha_static_phase_seconds", "Wall-clock seconds per static-analysis phase.", "phase", "client"),
	}
}

// observePhase records one static phase's wall-clock seconds for one
// client.
func (m *Metrics) observePhase(phase, client string, secs float64) {
	if m != nil {
		m.StaticPhase.With(phase, client).Observe(secs)
	}
}

func (m *Metrics) observeRun(client string, rolledBack, postRefine bool, refuted []core.Violation) {
	if m == nil {
		return
	}
	// Materialize every per-client child up front so a client that has
	// never rolled back still exposes an explicit zero series.
	m.Runs.With(client).Inc()
	rollbacks := m.Rollbacks.With(client)
	postRuns := m.PostRefineRuns.With(client)
	postRollbacks := m.PostRefineRollbacks.With(client)
	if postRefine {
		postRuns.Inc()
	}
	if !rolledBack {
		return
	}
	rollbacks.Inc()
	if postRefine {
		postRollbacks.Inc()
	}
	for _, v := range refuted {
		m.Violations.With(client, string(v.Kind)).Inc()
	}
}

func (m *Metrics) observeSwap(resolveSeconds float64) {
	if m == nil {
		return
	}
	m.Refinements.Inc()
	m.ResolveSeconds.Observe(resolveSeconds)
}
