// Package adapt closes the optimistic-hybrid-analysis feedback loop
// the paper leaves to the deployment (§2.1's stability/strength
// trade-off, §3's recovery discussion): when a speculative run
// mis-speculates, its rollback chain (core's speculate) re-executes it
// under a database without the refuted likely invariants, and the
// manager publishes that database as the next generation — so one
// violation never costs a second rollback.
//
// The package is three cooperating pieces:
//
//   - a violation ledger: the structured core.Violation records of
//     OptFT/OptSlice/OptNull rollbacks, accumulated into per-kind
//     violation counters and per-generation success statistics;
//   - a refinement rule: every fact a run's rollback chain refuted is
//     removed from a derived invariants.DB by its kind's rule
//     (core.Violation.Refine), in the chain's order, so the derived
//     database is the one the chain ended on;
//   - a re-analysis reconciler: Reconcile deploys, for every client the
//     outgoing generation had built, the detector its rollback chain
//     already built for the refined DB, or else builds it through the
//     content-addressed artifact cache — sound artifacts (keyed on the
//     nil DB) stay warm and each generation solves exactly the
//     predicated kinds its clients read, once — and hot-swaps the new
//     generation in without blocking in-flight runs (immutable
//     snapshots behind an atomic pointer; old detectors finish serving
//     their runs untouched).
//
// Determinism: given the same program, executions, and schedule seeds,
// the sequence of refinement generations (refined-DB serializations
// and compiled-mask digests) is a pure function of the violations
// observed, which the deterministic interpreter makes a pure function
// of the inputs — so the generation history is bit-identical across
// runs and worker counts.
package adapt

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oha/internal/core"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
)

// maxGenerations caps a manager's deployed configurations, including
// the base generation. At the cap the manager keeps serving (and
// counting) but stops refining.
const maxGenerations = 64

// Options configures a Manager.
type Options struct {
	// Metrics, when non-nil, records ledger and reconciler activity
	// and the static pipeline's per-phase latencies.
	Metrics *Metrics
	// Static configures the static re-analysis pipeline: the artifact
	// cache that memoizes static artifacts across generations (strongly
	// recommended: it keeps the sound artifacts warm and shares one
	// solve between a generation's clients; nil recomputes everything
	// per generation) and parallel solver workers.
	Static core.StaticConfig
}

// GenerationRecord describes one deployed configuration.
type GenerationRecord struct {
	// Generation numbers configurations from 1 (the base DB).
	Generation int `json:"generation"`
	// Causes are the violations whose refinements this generation
	// deployed (empty for the base generation): every fact one run's
	// rollback chain refuted, and several runs' facts when they are
	// observed before one reconcile.
	Causes []core.Violation `json:"causes,omitempty"`
	// DBDigest is the SHA-256 of the generation's invariant database
	// serialization; MaskDigest the content digest of one detector's
	// compiled configuration — instrumentation masks plus inline-cache
	// seeds and fusion setting. Reconcile prebuilds the detectors the
	// previous generation had built, in key order ("nullcheck" <
	// "race" < "slice/…"), and records the first; a generation with no
	// prebuilt detector records whichever client's detector is built
	// first. Together they fingerprint the deployed configuration for
	// the determinism guarantee; refining a callee-set fact changes
	// both.
	DBDigest   string `json:"db_digest"`
	MaskDigest string `json:"mask_digest,omitempty"`
	// ResolveSeconds is the re-analysis latency that produced this
	// generation (0 for the base).
	ResolveSeconds float64 `json:"resolve_seconds"`
}

// Status is a consistent snapshot of the manager, served by the
// daemon's GET /speculation.
type Status struct {
	Generation          int     `json:"generation"`
	Runs                uint64  `json:"runs"`
	Rollbacks           uint64  `json:"rollbacks"`
	SuccessRate         float64 `json:"success_rate"`
	PostRefineRuns      uint64  `json:"post_refine_runs"`
	PostRefineRollbacks uint64  `json:"post_refine_rollbacks"`
	// ViolationsByKind counts refuted facts per invariant kind: every
	// fact an observed run's rollback chain refuted.
	ViolationsByKind map[core.ViolationKind]uint64 `json:"violations_by_kind,omitempty"`
	// Clients breaks runs and rollbacks down per analysis client
	// (race, slice, nullcheck), keyed by core.Analysis name.
	Clients map[string]ClientStats `json:"clients,omitempty"`
	// PendingReconcile reports that refinements await a Reconcile.
	PendingReconcile bool               `json:"pending_reconcile"`
	History          []GenerationRecord `json:"history"`
	// IC aggregates the compiled engine's speculative-dispatch
	// counters (inline-cache hits/misses/deopts, fused
	// superinstruction executions) over every observed run.
	IC interp.ICStats `json:"ic"`
}

// ClientStats counts one client's observed runs and rollbacks.
type ClientStats struct {
	Runs      uint64 `json:"runs"`
	Rollbacks uint64 `json:"rollbacks"`
}

// Manager owns the adaptive state for one (program, base DB) pair.
// Run analyzes one execution under its published generation and
// publishes the database the run's rollback chain refined. All methods
// are safe for concurrent use.
type Manager struct {
	prog   *ir.Program
	met    *Metrics
	static core.StaticConfig

	// cur is the published generation; reads are lock-free, so
	// in-flight runs keep their snapshot while a swap lands.
	cur atomic.Pointer[generation]

	mu        sync.Mutex
	runs      uint64
	rollbacks uint64
	prRuns    uint64 // runs under generation > 1
	prRolls   uint64
	byKind    map[core.ViolationKind]uint64
	byClient  map[string]ClientStats
	ic        interp.ICStats
	// latest is the newest derived DB — always at least as weak as
	// every published or in-flight generation. nextCauses are the
	// violations folded into latest but not yet captured by a
	// reconcile.
	latest      *invariants.DB
	nextCauses  []core.Violation
	reconciling bool
	history     []GenerationRecord
}

// generation is one immutable deployed configuration. Its detectors
// are built lazily and memoized by core.Analysis key; construction goes
// through the shared artifact cache, so a rebuild of an already-solved
// configuration is cheap.
type generation struct {
	n  int
	db *invariants.DB

	mu        sync.Mutex
	detectors map[string]*built
}

// built is one memoized detector (or its construction error), its key,
// and how to build the same detector for another generation.
type built struct {
	once  sync.Once
	det   any
	err   error
	ok    atomic.Bool // det is built
	key   string
	again func(g *generation) (digest string, err error)
}

func newGeneration(n int, db *invariants.DB) *generation {
	return &generation{n: n, db: db, detectors: map[string]*built{}}
}

// New returns a manager for prog with base invariant database db
// (treated as immutable; generation 1). The expensive static solve is
// deferred to the first run.
func New(prog *ir.Program, db *invariants.DB, o Options) *Manager {
	m := &Manager{
		prog:     prog,
		met:      o.Metrics,
		static:   o.Static,
		byKind:   map[core.ViolationKind]uint64{},
		byClient: map[string]ClientStats{},
		latest:   db,
	}
	m.cur.Store(newGeneration(1, db))
	m.history = []GenerationRecord{{Generation: 1, DBDigest: db.Digest()}}
	return m
}

// Prog returns the managed program.
func (m *Manager) Prog() *ir.Program { return m.prog }

// Generation returns the published generation number.
func (m *Manager) Generation() int { return m.cur.Load().n }

// DB returns the published generation's invariant database (immutable).
func (m *Manager) DB() *invariants.DB { return m.cur.Load().db }

// current returns the published generation's detector for a and the
// generation number, building (and memoizing) it on first use.
func current[D core.Detector[R], R core.Report](m *Manager, a core.Analysis[D, R]) (D, int, error) {
	g := m.cur.Load()
	det, err := detector(m, g, a)
	return det, g.n, err
}

// detector returns g's memoized detector for a, building it once.
func detector[D core.Detector[R], R core.Report](m *Manager, g *generation, a core.Analysis[D, R]) (D, error) {
	return memoDetector(m, g, a, func() (D, error) { return build(a, m.prog, g.db, m.static, m.met) })
}

// memoDetector returns g's memoized detector for a, obtaining it once
// from obtain.
func memoDetector[D core.Detector[R], R core.Report](m *Manager, g *generation, a core.Analysis[D, R], obtain func() (D, error)) (D, error) {
	g.mu.Lock()
	b := g.detectors[a.Key]
	if b == nil {
		b = &built{key: a.Key}
		b.again = func(next *generation) (string, error) {
			det, err := memoDetector(m, next, a, func() (D, error) {
				// The outgoing detector's rollback chain has usually
				// built next's database already: deploy that
				// generation, timed under "masks", rather than build
				// the same detector twice. A build is timed under a's
				// own phase only.
				start := time.Now()
				if det, ok := core.Memoized(b.det.(D), next.db); ok {
					m.met.observePhase("masks", a.Name, time.Since(start).Seconds())
					return det, nil
				}
				return build(a, m.prog, next.db, m.static, m.met)
			})
			if err != nil {
				return "", err
			}
			return det.CodeDigest(), nil
		}
		g.detectors[a.Key] = b
	}
	g.mu.Unlock()
	b.once.Do(func() {
		det, err := obtain()
		if err != nil {
			b.err = err
			return
		}
		b.det = det
		b.ok.Store(true)
		m.setMaskDigest(g.n, det.CodeDigest())
	})
	if b.err != nil {
		var zero D
		return zero, b.err
	}
	return b.det.(D), nil
}

// build constructs a's detector for (prog, db), recording the build
// time under a's static phase in met (nil: not recorded).
func build[D core.Detector[R], R core.Report](a core.Analysis[D, R], prog *ir.Program, db *invariants.DB, cfg core.StaticConfig, met *Metrics) (D, error) {
	start := time.Now()
	det, err := a.Build(prog, db, cfg)
	if err == nil && a.Phase != "" {
		met.observePhase(a.Phase, a.Name, time.Since(start).Seconds())
	}
	return det, err
}

// setMaskDigest back-fills a generation's mask digest into the history
// once its first detector is built (first-wins: one fingerprint per
// generation, whichever client materializes first).
func (m *Manager) setMaskDigest(gen int, digest string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.history {
		if m.history[i].Generation == gen {
			if m.history[i].MaskDigest == "" {
				m.history[i].MaskDigest = digest
			}
			return
		}
	}
}

// observe feeds the final outcome of one run of the named client under
// generation gen into the ledger and folds every refinable fact the
// run's rollback chain refuted into the newest derived DB, in the
// chain's order: when the run started under the newest DB, the result
// is the database the chain ended on. A fact already absent from the
// newest DB (the run started under an older generation) refines
// nothing. The expensive re-solve is deferred to Reconcile.
func (m *Manager) observe(client string, gen int, out *core.Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ic.Add(out.IC)
	m.runs++
	cs := m.byClient[client]
	cs.Runs++
	if gen > 1 {
		m.prRuns++
	}
	if out.RolledBack {
		m.rollbacks++
		cs.Rollbacks++
		if gen > 1 {
			m.prRolls++
		}
	}
	m.byClient[client] = cs
	m.met.observeRun(client, out.RolledBack, gen > 1, out.Refuted)
	var refined *invariants.DB
	var causes []core.Violation
	for _, v := range out.Refuted {
		m.byKind[v.Kind]++
		if !v.Kind.Refinable() || len(m.history) >= maxGenerations {
			continue
		}
		if refined == nil {
			refined = m.latest.Clone()
		}
		if v.Refine(m.prog, refined) {
			causes = append(causes, v)
		}
	}
	if len(causes) > 0 {
		m.latest = refined
		m.nextCauses = append(m.nextCauses, causes...)
	}
}

// Pending reports whether refinements await a Reconcile (including one
// currently in flight).
func (m *Manager) Pending() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest != m.cur.Load().db
}

// Reconcile performs the background re-analysis for any pending
// refined DB: it deploys the detectors the outgoing generation's
// rollback chains built for it, or rebuilds them (through the artifact
// cache — only the solves that read a refined fact miss it), and
// hot-swaps the new generation in. In-flight runs keep their old
// snapshot. Returns whether a new generation was published. Safe to
// call from multiple goroutines; at most one re-solve runs at a time,
// extra callers return (false, nil).
func (m *Manager) Reconcile(ctx context.Context) (bool, error) {
	m.mu.Lock()
	cur := m.cur.Load()
	if m.reconciling || m.latest == cur.db {
		m.mu.Unlock()
		return false, nil
	}
	m.reconciling = true
	db := m.latest
	causes := m.nextCauses
	m.nextCauses = nil
	n := cur.n + 1
	m.mu.Unlock()

	fail := func(err error) (bool, error) {
		m.mu.Lock()
		m.reconciling = false
		m.nextCauses = append(causes, m.nextCauses...)
		m.mu.Unlock()
		return false, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
	}

	start := time.Now()
	g := newGeneration(n, db)
	digest, err := m.prebuild(cur, g) // the eager part of the re-solve
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start).Seconds()

	m.mu.Lock()
	m.history = append(m.history, GenerationRecord{
		Generation:     n,
		Causes:         causes,
		DBDigest:       db.Digest(),
		MaskDigest:     digest,
		ResolveSeconds: elapsed,
	})
	m.reconciling = false
	m.cur.Store(g)
	m.mu.Unlock()
	m.met.observeSwap(elapsed)
	return true, nil
}

// prebuild builds into g, in key order, every detector the outgoing
// generation from had built, or takes the one its rollback chain
// already built for g's database (see memoDetector's again). It
// returns the first one's configuration digest ("" when from had built
// none: the first lazy build fills it in).
func (m *Manager) prebuild(from, g *generation) (string, error) {
	from.mu.Lock()
	var bs []*built
	for _, b := range from.detectors {
		if b.ok.Load() {
			bs = append(bs, b)
		}
	}
	from.mu.Unlock()
	sort.Slice(bs, func(i, j int) bool { return bs[i].key < bs[j].key })
	first := ""
	for _, b := range bs {
		digest, err := b.again(g)
		if err != nil {
			return "", err
		}
		if first == "" {
			first = digest
		}
	}
	return first, nil
}

// Status returns a consistent snapshot.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Generation:          m.cur.Load().n,
		Runs:                m.runs,
		Rollbacks:           m.rollbacks,
		PostRefineRuns:      m.prRuns,
		PostRefineRollbacks: m.prRolls,
		PendingReconcile:    m.latest != m.cur.Load().db,
		History:             append([]GenerationRecord(nil), m.history...),
		IC:                  m.ic,
	}
	if m.runs > 0 {
		st.SuccessRate = float64(m.runs-m.rollbacks) / float64(m.runs)
	}
	if len(m.byKind) > 0 {
		st.ViolationsByKind = make(map[core.ViolationKind]uint64, len(m.byKind))
		for k, v := range m.byKind {
			st.ViolationsByKind[k] = v
		}
	}
	if len(m.byClient) > 0 {
		st.Clients = make(map[string]ClientStats, len(m.byClient))
		for k, v := range m.byClient {
			st.Clients[k] = v
		}
	}
	return st
}

// Run runs a's detector of the published generation once on e. The
// detector's rollback chain already re-executes a mis-speculated run
// under the database its refuted facts' rules weaken; Run observes the
// final report, folding every refuted fact into the manager's newest
// database, and reconciles, which publishes that database as the next
// generation and deploys the detector the chain built for it. A run
// that fails (a canceled one, say) is not observed.
func Run[D core.Detector[R], R core.Report](m *Manager, a core.Analysis[D, R], e core.Execution, opts core.RunOptions) (Result[D, R], error) {
	var res Result[D, R]
	det, gen, err := current(m, a)
	if err != nil {
		return res, err
	}
	rep, err := det.Run(e, opts)
	if err != nil {
		return res, err
	}
	m.observe(a.Name, gen, rep.Base())
	// A no-op unless the observation left a refinement pending.
	if _, err := m.Reconcile(opts.Ctx); err != nil {
		return res, err
	}
	res.Report, res.Detector, res.Generation = rep, det, m.Generation()
	return res, nil
}

// Mode is how Analyze runs a client: its unoptimized sound baseline,
// one run under a manager (Run), or one plain optimistic run.
type Mode struct {
	// Baseline runs the client's sound baseline; nothing else is read.
	Baseline bool
	// Manager, when non-nil, runs a once under it (Run).
	Manager *Manager
	// Otherwise one detector is built for DB under Static (its build
	// timed into Metrics; nil: not recorded) and run once.
	DB      *invariants.DB
	Static  core.StaticConfig
	Metrics *Metrics
}

// Result is an analysis's final report and the detector that produced
// it (zero for a baseline run). In adaptive mode Generation is the
// generation the manager publishes once the run's refinements are
// reconciled: the one the next run starts under.
type Result[D core.Detector[R], R core.Report] struct {
	Report     R
	Detector   D
	Generation int
}

// Analyze runs a on one execution of prog in the given mode. It is the
// one place the baseline / optimistic / adaptive switch is written:
// the daemon's analysis jobs and the CLI both call it.
func Analyze[D core.Detector[R], R core.Report](prog *ir.Program, a core.Analysis[D, R], mode Mode, e core.Execution, opts core.RunOptions) (Result[D, R], error) {
	var res Result[D, R]
	var err error
	switch {
	case mode.Baseline:
		res.Report, err = a.Baseline(prog, e, opts)
	case mode.Manager != nil:
		return Run(mode.Manager, a, e, opts)
	default:
		if res.Detector, err = build(a, prog, mode.DB, mode.Static, mode.Metrics); err != nil {
			return res, err
		}
		res.Report, err = res.Detector.Run(e, opts)
	}
	return res, err
}
