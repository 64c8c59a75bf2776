// Package inc is the incremental + parallel static-analysis pipeline:
// the fast path for re-running the predicated race pipeline after an
// adaptive refinement (ISSUE: make re-analysis the fast path).
//
// A refinement removes one likely-invariant fact, which only ever ADDS
// constraints to the context-insensitive predicated analyses — blocks
// are un-pruned, callee sets widen, singleton-spawn and guarding-lock
// assumptions are dropped. Andersen constraint solving computes the
// unique least fixpoint of a monotone system, so generation N's
// saturated solver state is a valid intermediate state for generation
// N+1: Reanalyze seeds only the delta constraints and resumes, instead
// of re-solving from scratch. The static race pass then re-evaluates
// only access pairs whose verdict inputs (address points-to sets,
// locksets, MHP signatures, must-alias facts) changed.
//
// Saturated state is kept in the artifact cache under
// artifacts.KindSolverState as a Generation bundle — the points-to,
// MHP, and race results plus the database they assumed, all sharing
// one object numbering. Internal consistency of the bundle is what
// makes the incremental diffs valid; the individual per-kind artifacts
// are also published so the ordinary cached constructors
// (core.NewOptFTCached etc.) hit them for free.
//
// Every incremental or parallel result is digest-identical to the
// sequential from-scratch result — verified exhaustively by this
// package's equivalence tests.
package inc

import (
	"time"

	"oha/internal/artifacts"
	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/metrics"
	"oha/internal/mhp"
	"oha/internal/pointsto"
	"oha/internal/staticrace"
)

// Options configures a re-analysis.
type Options struct {
	// Workers bounds the parallel solvers (0 = GOMAXPROCS, 1 =
	// sequential). The result is identical for every value.
	Workers int
	// Incremental enables resume-from-saturated-state when a previous
	// generation's bundle is available; off, every generation re-solves
	// from scratch (still parallel).
	Incremental bool
	// Metrics receives phase timings and the constraint reuse ratio
	// (nil: unobserved).
	Metrics *Metrics
}

// Generation is the internally-consistent bundle of one generation's
// static results: PT, MHP, and Race share one solver object numbering,
// and DB is the database they assumed. It is the solver state the next
// generation resumes from.
type Generation struct {
	DB   *invariants.DB
	PT   *pointsto.Result
	MHP  *mhp.Result
	Race *staticrace.Result
}

// Stats describes how one re-analysis ran.
type Stats struct {
	// Mode is "cached" (everything already in the cache),
	// "incremental" (resumed from the previous generation's saturated
	// state), or "scratch".
	Mode string
	// ReuseRatio is the fraction of points-to constraints inherited
	// from the resumed state (0 outside incremental mode).
	ReuseRatio float64
	// Phases holds per-phase wall-clock seconds (pointsto, mhp, race).
	Phases map[string]float64
}

// Metrics holds the static-pipeline metrics: per-phase latency
// histograms and the incremental constraint-reuse gauge. A nil
// *Metrics is valid and records nothing.
type Metrics struct {
	Phase *metrics.HistogramVec // oha_static_phase_seconds{phase=...,client=...}
	Reuse *metrics.FloatGauge   // oha_inc_reuse_ratio
}

// NewMetrics registers the pipeline metrics on reg (nil reg: working,
// unregistered metrics). Phase latencies carry a client label so one
// family serves every analysis client.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Phase: reg.NewHistogramVec("oha_static_phase_seconds",
			"Wall-clock seconds per static-analysis phase.", "phase", "client"),
		Reuse: reg.NewFloatGauge("oha_inc_reuse_ratio",
			"Fraction of points-to constraints reused by the last incremental re-analysis."),
	}
}

// ObservePhase records one phase's wall-clock seconds for one client.
func (m *Metrics) ObservePhase(phase, client string, secs float64) {
	if m != nil {
		m.Phase.With(phase, client).Observe(secs)
	}
}

// ObserveReuse records the constraint reuse ratio of a re-analysis.
func (m *Metrics) ObserveReuse(r float64) {
	if m != nil {
		m.Reuse.Set(r)
	}
}

// solverStateKey keys a generation bundle by (IR digest, DB digest).
func solverStateKey(prog *ir.Program, db *invariants.DB) string {
	return artifacts.RaceKey(artifacts.KindSolverState, prog, db)
}

// Reanalyze runs (or reuses) the predicated static race pipeline for
// newDB, preferring, in order: the cache (newDB already analyzed), an
// incremental resume from oldDB's saturated solver state, and a
// parallel from-scratch solve. The resulting per-kind artifacts and
// the generation bundle are published to the cache under newDB's
// digest, so subsequent detector construction (core.NewOptFTCached and
// friends) and the NEXT refinement's resume both hit.
func Reanalyze(prog *ir.Program, oldDB, newDB *invariants.DB, cache *artifacts.Cache, opts Options) (*Generation, Stats, error) {
	st := Stats{Phases: map[string]float64{}}
	ptKey := artifacts.RaceKey(artifacts.KindPointsTo, prog, newDB)
	mhpKey := artifacts.RaceKey(artifacts.KindMHP, prog, newDB)
	raceKey := artifacts.RaceKey(artifacts.KindStaticRace, prog, newDB)

	// Already analyzed: serve the cached generation.
	if g, ok := loadBundle(prog, newDB, cache); ok {
		st.Mode = "cached"
		return g, st, nil
	}

	var pt *pointsto.Result
	var m *mhp.Result
	var sr *staticrace.Result

	// Incremental: resume from the previous generation's bundle.
	if opts.Incremental && oldDB != nil {
		if prev, ok := loadBundle(prog, oldDB, cache); ok {
			t := time.Now()
			if resumed, err := pointsto.Resume(prev.PT, newDB); err == nil {
				pt = resumed
				st.Phases["pointsto"] = time.Since(t).Seconds()
				t = time.Now()
				m = mhp.Analyze(prog, pt, newDB)
				st.Phases["mhp"] = time.Since(t).Seconds()
				t = time.Now()
				sr = staticrace.Incremental(prog, pt, m, newDB, staticrace.Prev{
					Race: prev.Race, PT: prev.PT, MHP: prev.MHP, DB: prev.DB,
				})
				st.Phases["race"] = time.Since(t).Seconds()
				st.Mode = "incremental"
				if n := pt.ConstraintCount(); n > 0 {
					st.ReuseRatio = float64(prev.PT.ConstraintCount()) / float64(n)
				}
			}
		}
	}

	// From scratch (parallel).
	if pt == nil {
		var err error
		t := time.Now()
		pt, err = pointsto.AnalyzeParallel(prog, ctxs.NewCI(prog), newDB, opts.Workers)
		if err != nil {
			return nil, st, err
		}
		st.Phases["pointsto"] = time.Since(t).Seconds()
		t = time.Now()
		m = mhp.Analyze(prog, pt, newDB)
		st.Phases["mhp"] = time.Since(t).Seconds()
		t = time.Now()
		sr = staticrace.AnalyzeParallel(prog, pt, m, newDB, opts.Workers)
		st.Phases["race"] = time.Since(t).Seconds()
		st.Mode = "scratch"
	}

	g := &Generation{DB: newDB, PT: pt, MHP: m, Race: sr}
	publish(prog, newDB, cache, g, ptKey, mhpKey, raceKey)
	for phase, secs := range st.Phases {
		opts.Metrics.ObservePhase(phase, "race", secs)
	}
	opts.Metrics.ObserveReuse(st.ReuseRatio)
	return g, st, nil
}

// loadBundle returns the saturated generation bundle for db. When only
// the per-kind artifacts are cached — the base generation is built by
// core's cached constructors, which don't write bundles — the bundle
// is assembled from them and published. That assembly is internally
// consistent because every cached MHP and race entry is derived from
// the single memoized points-to result under the same key, whose
// object numbering is what the bundle shares.
func loadBundle(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache) (*Generation, bool) {
	if cache == nil {
		return nil, false
	}
	if bv, ok := cache.PeekDisk(solverStateKey(prog, db), GenerationCodec(prog, db)); ok {
		return bv.(*Generation), true
	}
	pv, ok := cache.PeekDisk(artifacts.RaceKey(artifacts.KindPointsTo, prog, db), artifacts.PointsToCodec(prog, db))
	if !ok {
		return nil, false
	}
	mv, ok := cache.PeekDisk(artifacts.RaceKey(artifacts.KindMHP, prog, db), artifacts.MHPCodec(prog))
	if !ok {
		return nil, false
	}
	rv, ok := cache.PeekDisk(artifacts.RaceKey(artifacts.KindStaticRace, prog, db), artifacts.RaceCodec(prog))
	if !ok {
		return nil, false
	}
	g := &Generation{DB: db, PT: pv.(*pointsto.Result), MHP: mv.(*mhp.Result), Race: rv.(*staticrace.Result)}
	cache.Memo(solverStateKey(prog, db), GenerationCodec(prog, db), func() (any, error) { return g, nil }) //nolint:errcheck
	return g, true
}

// publish stores the generation's artifacts in the cache: the
// per-kind entries the ordinary cached constructors consult, and the
// bundle the next incremental resume loads. Memo never replaces an
// existing entry (singleflight, permanent), so a concurrent compute
// winning the per-kind slots is harmless — results are
// digest-identical — while the bundle stays internally consistent by
// construction.
func publish(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache, g *Generation, ptKey, mhpKey, raceKey string) {
	if cache == nil {
		return
	}
	cache.Memo(ptKey, artifacts.PointsToCodec(prog, db), func() (any, error) { return g.PT, nil })
	cache.Memo(mhpKey, artifacts.MHPCodec(prog), func() (any, error) { return g.MHP, nil })
	cache.Memo(raceKey, artifacts.RaceCodec(prog), func() (any, error) { return g.Race, nil })
	cache.Memo(solverStateKey(prog, db), GenerationCodec(prog, db), func() (any, error) { return g, nil })
}
