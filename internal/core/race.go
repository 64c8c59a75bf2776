package core

import (
	"slices"

	"oha/internal/artifacts"
	"oha/internal/ctxs"
	"oha/internal/fasttrack"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/mhp"
	"oha/internal/nullcheck"
	"oha/internal/pointsto"
	"oha/internal/staticrace"
	"oha/internal/vc"
)

// RaceReport is the result of one race-detection run.
type RaceReport struct {
	// Races are the canonical (deduplicated, ordered) race keys.
	Races []fasttrack.Key
	// RacyAddrs are the addresses on which races were detected — the
	// unit at which differently-instrumented FastTrack configurations
	// are equivalent (see fasttrack.Detector.RacyAddrs).
	RacyAddrs []interp.Addr
	// Details carries one representative Race per key.
	Details []fasttrack.Race
	// FTChecks counts FastTrack read/write metadata operations.
	FTChecks uint64
	Outcome
}

// StaticConfig tunes how the static pipelines are computed. The zero
// value is the parallel pipeline with no memoization. A static solve is
// keyed by the facts it reads (StaticKeysOf), and results are
// digest-identical for every worker count, so Workers is deliberately
// NOT part of the keys: a result solved with 8 workers serves a
// sequential consumer, and vice versa.
// The NoIC/NoFusion engine toggles, by contrast, change the compiled
// image and ARE part of the compiled-image key (interp.Code's config
// digest) — though never the analysis results, which stay bit-
// identical under every setting.
type StaticConfig struct {
	// Cache memoizes static artifacts and compiled images by content
	// address (nil: recompute).
	Cache *artifacts.Cache
	// Workers bounds the parallel points-to and race-pair solvers
	// (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// NoIC disables speculative inline caches at indirect call sites
	// (cmd/oha -ic=off). Observable behavior is unchanged either way.
	NoIC bool
	// NoFusion disables superinstruction fusion in compiled images
	// (cmd/oha -fusion=off). Observable behavior is unchanged.
	NoFusion bool
	// NoFastPath disables the engine's inline tracer fast paths
	// (cmd/oha -fastpath=off). Like NoIC/NoFusion it changes the
	// compiled image and is part of the image key, but never the
	// analysis results.
	NoFastPath bool
}

// StaticKeys are the cache keys of the static solves of one (program,
// database) pair: each is its solver's projection digest plus the keys
// of the solves upstream of it. A refinement re-solves only what read
// the refuted fact, and no solve reads the elidable lock set.
type StaticKeys struct {
	PointsTo, MHP, StaticRace, NullProof string
}

// StaticKeysOf computes the keys of (prog, db); a nil db keys the
// sound solves.
func StaticKeysOf(prog *ir.Program, db *invariants.DB) StaticKeys {
	pt := artifacts.Key(artifacts.KindPointsTo, prog, pointsto.FactsOf(db).Digest(), "ci")
	m := artifacts.Key(artifacts.KindMHP, prog, mhp.FactsOf(db).Digest(), pt)
	return StaticKeys{
		PointsTo:   pt,
		MHP:        m,
		StaticRace: artifacts.Key(artifacts.KindStaticRace, prog, staticrace.FactsOf(db).Digest(), pt, m),
		NullProof:  artifacts.Key(artifacts.KindNullProof, prog, nullcheck.FactsOf(db).Digest(), pt),
	}
}

// analyzeRaceStatic runs the (sound or predicated) Chord-style static
// pipeline. With a non-nil cache the points-to, MHP, and static-race
// stages are memoized under StaticKeysOf(prog, db).
func analyzeRaceStatic(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (*staticrace.Result, error) {
	keys := StaticKeysOf(prog, db)
	v, err := cfg.Cache.Memo(keys.StaticRace, artifacts.RaceCodec(prog), func() (any, error) {
		pt, err := pointsToCI(prog, db, keys, cfg)
		if err != nil {
			return nil, err
		}
		v, err := cfg.Cache.Memo(keys.MHP, artifacts.MHPCodec(prog), func() (any, error) {
			return mhp.Analyze(prog, pt, db), nil
		})
		if err != nil {
			return nil, err
		}
		return staticrace.AnalyzeParallel(prog, pt, v.(*mhp.Result), db, cfg.Workers), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*staticrace.Result), nil
}

// pointsToCI returns the (memoized) context-insensitive points-to
// result of (prog, db) under keys.PointsTo.
func pointsToCI(prog *ir.Program, db *invariants.DB, keys StaticKeys, cfg StaticConfig) (*pointsto.Result, error) {
	f := pointsto.FactsOf(db)
	v, err := cfg.Cache.Memo(keys.PointsTo, artifacts.PointsToCodec(prog, f), func() (any, error) {
		return pointsto.Solve(prog, ctxs.NewCI(prog), f, cfg.Workers)
	})
	if err != nil {
		return nil, err
	}
	return v.(*pointsto.Result), nil
}

// optTracer is the speculative run's tracer: the run's invariant
// checker plus FastTrack's memory, sync, spawn and join events. Unlike
// the hybrid run, whose tracer is the bare detector, every event it
// delivers to FastTrack costs one more call through this wrapper;
// BenchmarkFig5OptVsHybrid measures that cost where the two runs fire
// the same events.
type optTracer struct {
	*checker
	det  *fasttrack.Detector
	sync []bool // FastTrack's sync sites (the checker sees the rest)
}

// FastState implements interp.FastTracer. Memory events route only to
// the detector (the invariant checker consumes sync and block events),
// so an inline hit on the detector's shadow state skips nothing the
// checker would see.
func (o *optTracer) FastState() *interp.FastState { return o.det.FastState() }

func (o *optTracer) Load(t vc.TID, in *ir.Instr, addr interp.Addr, v int64) {
	o.det.Load(t, in, addr, v)
}

func (o *optTracer) Store(t vc.TID, in *ir.Instr, addr interp.Addr, v int64) {
	o.det.Store(t, in, addr, v)
}

func (o *optTracer) Lock(t vc.TID, in *ir.Instr, addr interp.Addr) {
	if o.sync == nil || o.sync[in.ID] {
		o.det.Lock(t, in, addr)
	}
	o.checker.Lock(t, in, addr)
}

func (o *optTracer) Unlock(t vc.TID, in *ir.Instr, addr interp.Addr) {
	if o.sync == nil || o.sync[in.ID] {
		o.det.Unlock(t, in, addr)
	}
}

func (o *optTracer) Spawn(t vc.TID, in *ir.Instr, c vc.TID, f interp.FrameID, fn *ir.Function) {
	o.det.Spawn(t, in, c, f, fn)
	o.checker.Spawn(t, in, c, f, fn)
}

func (o *optTracer) Join(t vc.TID, in *ir.Instr, c vc.TID) {
	o.det.Join(t, in, c)
}

func raceReport(det *fasttrack.Detector, res *interp.Result) *RaceReport {
	races := det.Races()
	return &RaceReport{
		Races:     fasttrack.Keys(races),
		RacyAddrs: det.RacyAddrs(),
		Details:   races,
		FTChecks:  det.Checks,
		Outcome:   outcomeOf(res),
	}
}

// RunPlain executes without any analysis — the "framework overhead"
// baseline of Figure 5.
func RunPlain(prog *ir.Program, e Execution, opts RunOptions) (*interp.Result, error) {
	return (&plan{prog: prog, masks: plainMasks}).run(e, nil, nil, opts)
}

// raceMasks deliver FastTrack's events: loads and stores at mem, locks
// and unlocks at sync (nil: every site), no block event. With nil masks
// they are the unoptimized race detectors' configuration.
func raceMasks(prog *ir.Program, mem, sync []bool) interp.Masks {
	return interp.Masks{Mem: mem, Sync: sync, Block: make([]bool, len(prog.Blocks))}
}

// RunFastTrack executes under full FastTrack instrumentation (the
// unoptimized baseline).
func RunFastTrack(prog *ir.Program, e Execution, opts RunOptions) (*RaceReport, error) {
	return (&plan{prog: prog, masks: raceMasks(prog, nil, nil)}).fastTrack(e, opts)
}

// fastTrack runs e under p with a FastTrack detector.
func (p *plan) fastTrack(e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.New()
	defer det.Release()
	res, err := p.run(e, det, nil, opts)
	if err != nil {
		return nil, err
	}
	return raceReport(det, res), nil
}

// HybridFT is the traditional hybrid baseline: FastTrack optimized by
// the sound static race analysis.
type HybridFT struct {
	Prog   *ir.Program
	Static *staticrace.Result

	plan *plan
}

// NewHybridFT runs the sound static analysis. The result is
// digest-identical for every configuration; only the solve latency
// changes.
func NewHybridFT(prog *ir.Program, cfg StaticConfig) (*HybridFT, error) {
	sr, err := analyzeRaceStatic(prog, nil, cfg)
	if err != nil {
		return nil, err
	}
	mem, sync := sr.Masks(nil)
	// The sound image assumes no invariants: no IC seeds (nil db).
	p := compiledCode(prog, raceMasks(prog, mem, sync), compileOpts(nil, cfg), cfg.Cache)
	return &HybridFT{Prog: prog, Static: sr, plan: p}, nil
}

// Run executes one analysis under the hybrid instrumentation.
func (h *HybridFT) Run(e Execution, opts RunOptions) (*RaceReport, error) {
	return h.plan.fastTrack(e, opts)
}

// OptFT is the optimistic hybrid race detector (§4): FastTrack
// optimized by the predicated static analysis, run speculatively with
// invariant checks, rolling back to a refined generation or the
// traditional hybrid analysis on mis-speculation.
type OptFT struct {
	Prog *ir.Program
	DB   *invariants.DB
	// Pred is the predicated static result.
	Pred *staticrace.Result

	checks *checks      // shared by every run
	static StaticConfig // compiles the speculative plan
	// spec is the speculative run's plan: FastTrack's sites plus the
	// check sites; sync flags FastTrack's own lock sites.
	spec *plan
	sync []bool
	gens *generations[*OptFT, *HybridFT]
}

// NewOptFT runs the predicated static analysis and prepares masks; the
// sound analysis, the rollback target, is built the first time a run
// falls through to it. Lock instrumentation is elided at
// db.ElidableLocks, the proposal profiling sets (see ProfileWith).
func NewOptFT(prog *ir.Program, db *invariants.DB) (*OptFT, error) {
	return NewOptFTStatic(prog, db, StaticConfig{Workers: 1})
}

// NewOptFTCached is NewOptFT with static-artifact memoization.
func NewOptFTCached(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache) (*OptFT, error) {
	return NewOptFTStatic(prog, db, StaticConfig{Cache: cache, Workers: 1})
}

// NewOptFTStatic is NewOptFT with an explicit static pipeline
// configuration. Masks and derived state are always private to the
// returned instance; only the immutable static results are shared
// through cfg.Cache. With a warm cache — in particular one ProfileWith
// filled when it proposed the elidable locks — no static solving
// happens here at all.
func NewOptFTStatic(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (*OptFT, error) {
	return newOptFT(prog, db, cfg, newGenerations[*OptFT](func() (*HybridFT, error) { return NewHybridFT(prog, cfg) }))
}

// newOptFT builds the OptFT for db, sharing gens (and its sound
// fallback) with the generations it is refined from.
func newOptFT(prog *ir.Program, db *invariants.DB, cfg StaticConfig, gens *generations[*OptFT, *HybridFT]) (*OptFT, error) {
	pred, err := analyzeRaceStatic(prog, db, cfg)
	if err != nil {
		return nil, err
	}
	// The kinds the predicated race analysis reads (TestChecksCoverReads);
	// an elided-lock race is checked once the run completes (try).
	checks := newChecks(prog, db, nil, ViolationUnreachableBlock, ViolationCalleeSet, ViolationSingletonSpawn, ViolationGuardingLock)
	// The speculative plan: FastTrack's sync sites plus the
	// guarding-lock check sites, which need the cheap address check even
	// where FastTrack's lock processing is elided. Its image is IC-seeded
	// from the likely callee sets: an inline cache is semantically
	// transparent, and the callee-set violation is raised by the tracer.
	mem, sync := pred.Masks(db)
	checked := slices.Clone(sync)
	for pair := range db.MustAliasLocks {
		checked[pair.A] = true
		checked[pair.B] = true
	}
	spec := compiledCode(prog, interp.Masks{Mem: mem, Sync: checked, Block: checks.luc}, compileOpts(db, cfg), cfg.Cache)
	return &OptFT{Prog: prog, DB: db, Pred: pred, checks: checks, static: cfg, spec: spec, sync: sync, gens: gens}, nil
}

// CodeDigest returns the content digest of the speculative run's
// compiled configuration (instrumentation masks, IC seeds, fusion) —
// the fingerprint the adaptive speculation manager records per
// generation. Refining a callee-set fact changes the digest.
func (o *OptFT) CodeDigest() string { return o.spec.code.ConfigDigest() }

// ElidedAccesses returns how many loads/stores the predicated analysis
// allows OptFT to skip.
func (o *OptFT) ElidedAccesses() int {
	n := 0
	for _, in := range o.Prog.Instrs {
		if in.IsMemAccess() && !o.spec.masks.Mem[in.ID] {
			n++
		}
	}
	return n
}

// Run executes one speculative analysis of e, rolling back to a
// refined generation or the traditional hybrid analysis on invariant
// violation, or on any race report while lock instrumentation is
// elided, per §4.2.4 (speculate).
func (o *OptFT) Run(e Execution, opts RunOptions) (*RaceReport, error) {
	return speculate(o, e, opts)
}

func (o *OptFT) try(e Execution, opts RunOptions) (*RaceReport, *Outcome, error) {
	checker := o.checks.newChecker()
	det := fasttrack.New()
	defer det.Release()
	tracer := &optTracer{checker: checker, det: det, sync: o.sync}
	report := func(res *interp.Result) *RaceReport { return raceReport(det, res) }
	suspect := func() Violation {
		// Race reports are potential mis-speculations when lock
		// instrumentation was elided (custom synchronization may have
		// been missed): re-check without the elision.
		if det.HasRaces() && !o.DB.ElidableLocks.IsEmpty() {
			return Violation{Kind: ViolationElidedLockRace, Site: -1, Callee: -1}
		}
		return Violation{}
	}
	return attempt(o.spec, tracer, &checker.checkState, e, opts, report, suspect)
}

func (o *OptFT) facts() (*ir.Program, *invariants.DB) { return o.Prog, o.DB }

func (o *OptFT) refined(db *invariants.DB) (optimistic[*RaceReport], error) {
	return o.gens.get(db, func() (*OptFT, error) { return newOptFT(o.Prog, db, o.static, o.gens) })
}

func (o *OptFT) sound(e Execution, opts RunOptions) (*RaceReport, error) {
	h, err := o.gens.sound.get()
	if err != nil {
		return nil, err
	}
	return h.Run(e, opts)
}

func (o *OptFT) memoized(db *invariants.DB) (*OptFT, bool) { return o.gens.lookup(db) }

// ValidateCustomSync is a no-op kept for source compatibility: it
// returns only opts.Ctx's cancellation. Profiling no longer replays
// executions to validate lock elision; a race reported while lock
// sites are elided rolls the run back instead (ViolationElidedLockRace),
// so the proposal ProfileWith sets is validated by speculation.
//
// Deprecated: lock elision needs no validation step.
func (o *OptFT) ValidateCustomSync(execs []Execution, opts RunOptions) error {
	return ctxErr(opts.Ctx)
}

// proposeElidableLocks sets db.ElidableLocks to the lock sites the
// predicated static race analysis of db proposes to elide (§4.2.4). A
// program with no lock instruction skips it, static analysis included.
func proposeElidableLocks(prog *ir.Program, db *invariants.DB, cfg StaticConfig) error {
	if !hasLock(prog) {
		return nil
	}
	pred, err := analyzeRaceStatic(prog, db, cfg)
	if err != nil {
		return err
	}
	db.ElidableLocks = pred.ElidableSyncs.Clone()
	return nil
}

// hasLock reports whether prog has a lock instruction.
func hasLock(prog *ir.Program) bool {
	return slices.ContainsFunc(prog.Instrs, func(in *ir.Instr) bool { return in.Op == ir.OpLock })
}

// SameRaces reports whether two runs detected races on exactly the
// same memory addresses — the equivalence FastTrack guarantees across
// instrumentation configurations (the exact access-pair attribution
// within one racy variable may differ with the metadata state; see
// fasttrack.Key). Both reports must come from the same Execution.
func SameRaces(a, b *RaceReport) bool { return slices.Equal(a.RacyAddrs, b.RacyAddrs) }

// RunDJIT executes under the DJIT+-style full-vector-clock detector —
// the ablation baseline for FastTrack's epoch optimization.
func RunDJIT(prog *ir.Program, e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.NewDJIT()
	res, err := (&plan{prog: prog, masks: raceMasks(prog, nil, nil)}).run(e, det, nil, opts)
	if err != nil {
		return nil, err
	}
	return &RaceReport{RacyAddrs: det.RacyAddrs(), FTChecks: det.Checks, Outcome: outcomeOf(res)}, nil
}
