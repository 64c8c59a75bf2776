package core

import (
	"context"
	"fmt"
	"slices"

	"oha/internal/artifacts"
	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/fasttrack"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/mhp"
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
// value is the parallel pipeline with no memoization. Results are
// digest-identical for every worker count, so Workers is deliberately
// NOT part of the static artifact cache keys: a result solved with 8
// workers serves a sequential consumer, and vice versa.
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

// analyzeRaceStatic runs the (sound or predicated) Chord-style static
// pipeline. With a non-nil cache the points-to, MHP, and static-race
// stages are memoized by content address (artifacts.RaceKey, which
// leaves db.ElidableLocks out).
func analyzeRaceStatic(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (*staticrace.Result, error) {
	v, err := cfg.Cache.Memo(artifacts.RaceKey(artifacts.KindStaticRace, prog, db), artifacts.RaceCodec(prog), func() (any, error) {
		pt, err := pointsToCI(prog, db, cfg)
		if err != nil {
			return nil, err
		}
		m, err := mhpOf(prog, pt, db, cfg.Cache)
		if err != nil {
			return nil, err
		}
		return staticrace.AnalyzeParallel(prog, pt, m, db, cfg.Workers), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*staticrace.Result), nil
}

// pointsToCI returns the (memoized) context-insensitive points-to
// result for the race pipeline.
func pointsToCI(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (*pointsto.Result, error) {
	v, err := cfg.Cache.Memo(artifacts.RaceKey(artifacts.KindPointsTo, prog, db), artifacts.PointsToCodec(prog, db), func() (any, error) {
		return pointsto.AnalyzeParallel(prog, ctxs.NewCI(prog), db, cfg.Workers)
	})
	if err != nil {
		return nil, err
	}
	return v.(*pointsto.Result), nil
}

// mhpOf returns the (memoized) may-happen-in-parallel result. pt must
// be the pointsToCI result for the same (prog, db), which the key
// already determines.
func mhpOf(prog *ir.Program, pt *pointsto.Result, db *invariants.DB, cache *artifacts.Cache) (*mhp.Result, error) {
	v, err := cache.Memo(artifacts.RaceKey(artifacts.KindMHP, prog, db), artifacts.MHPCodec(prog), func() (any, error) {
		return mhp.Analyze(prog, pt, db), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mhp.Result), nil
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
	DB   *invariants.DB // the caller's, or ValidateCustomSync's copy
	// Pred and Sound are the predicated and sound static results; Sound
	// is shared by every refined generation.
	Pred  *staticrace.Result
	Sound *HybridFT

	checks *checks      // shared by every run
	static StaticConfig // compiles the speculative plan
	// spec is the speculative run's plan: FastTrack's sites plus the
	// check sites; sync flags FastTrack's own lock sites.
	spec *plan
	sync []bool
	gens *generations[*OptFT]
}

// NewOptFT runs both static analyses (predicated for speculation,
// sound for rollback) and prepares masks. Lock instrumentation is
// elided at db.ElidableLocks, the set profiling validated (see
// ProfileWith).
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
// through cfg.Cache. With a warm cache — in particular one prewarmed
// by ProfileWith's custom-sync validation — no static solving happens
// here at all.
func NewOptFTStatic(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (*OptFT, error) {
	sound, err := NewHybridFT(prog, cfg)
	if err != nil {
		return nil, err
	}
	return newOptFT(prog, db, cfg, sound, &generations[*OptFT]{})
}

// newOptFT builds the OptFT for db over an existing sound fallback,
// sharing gens with the generations it is refined from.
func newOptFT(prog *ir.Program, db *invariants.DB, cfg StaticConfig, sound *HybridFT, gens *generations[*OptFT]) (*OptFT, error) {
	pred, err := analyzeRaceStatic(prog, db, cfg)
	if err != nil {
		return nil, err
	}
	// The kinds the predicated race analysis reads (TestChecksCoverReads);
	// an elided-lock race is checked once the run completes (try).
	checks := newChecks(prog, db, nil, ViolationUnreachableBlock, ViolationCalleeSet, ViolationSingletonSpawn, ViolationGuardingLock)
	o := &OptFT{Prog: prog, DB: db, Pred: pred, Sound: sound, checks: checks, static: cfg, gens: gens}
	o.compile(pred.Masks(db))
	return o, nil
}

// compile builds the speculative plan from FastTrack's masks. Its image
// is IC-seeded from the database's likely callee sets: an inline cache
// is semantically transparent (a miss just resolves generically), so
// seeding needs no checker support — the callee-set violation itself
// is raised by the tracer.
func (o *OptFT) compile(mem, sync []bool) {
	// Sync events: FastTrack's sites plus the guarding-lock check
	// sites (which need the cheap address check even when FastTrack's
	// lock processing is elided).
	checked := slices.Clone(sync)
	for pair := range o.DB.MustAliasLocks {
		checked[pair.A] = true
		checked[pair.B] = true
	}
	o.spec = compiledCode(o.Prog, interp.Masks{Mem: mem, Sync: checked, Block: o.checks.luc}, compileOpts(o.DB, o.static), o.static.Cache)
	o.sync = sync
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
	return speculate(o, e, opts, o.Sound.Run)
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
	return o.gens.get(db, func() (*OptFT, error) { return newOptFT(o.Prog, db, o.static, o.Sound, o.gens) })
}

func (o *OptFT) memoized(db *invariants.DB) (*OptFT, bool) { return o.gens.lookup(db) }

// ValidateCustomSync runs profiling's custom-sync validation
// (validatedDB) on execs and elides the lock sites it keeps. After
// ProfileWith with the same cache and executions it is one cache hit.
// The caller's database is left as it was.
func (o *OptFT) ValidateCustomSync(execs []Execution, opts RunOptions) error {
	db, err := validatedDB(o.Prog, o.DB, execs, o.static.Cache, opts, func() (*staticrace.Result, *HybridFT, error) { return o.Pred, o.Sound, nil })
	if err != nil {
		return err
	}
	if !db.ElidableLocks.Equal(o.DB.ElidableLocks) {
		o.DB = db
		o.compile(o.Pred.Masks(db))
	}
	return nil
}

// withValidatedLocks is profiling's custom-sync validation of db on
// execs. A program with no lock instruction skips it, static analysis
// included.
func withValidatedLocks(ctx context.Context, prog *ir.Program, db *invariants.DB, execs []Execution, cfg StaticConfig) (*invariants.DB, error) {
	if !hasLock(prog) {
		return db, nil
	}
	return validatedDB(prog, db, execs, cfg.Cache, RunOptions{Ctx: ctx}, func() (*staticrace.Result, *HybridFT, error) {
		pred, err := analyzeRaceStatic(prog, db, cfg)
		if err != nil {
			return nil, nil, err
		}
		sound, err := NewHybridFT(prog, cfg)
		return pred, sound, err
	})
}

// hasLock reports whether prog has a lock instruction.
func hasLock(prog *ir.Program) bool {
	return slices.ContainsFunc(prog.Instrs, func(in *ir.Instr) bool { return in.Op == ir.OpLock })
}

// validatedDB returns a copy of db whose ElidableLocks is the set
// validateLocks keeps on execs, memoized by IR digest, db's race key
// (its digest without ElidableLocks and NonNullLoads), run bounds and
// the executions' ExecKeys; only the cached database's ElidableLocks is
// read. On a miss, static supplies the predicated and sound race
// analyses.
func validatedDB(prog *ir.Program, db *invariants.DB, execs []Execution, cache *artifacts.Cache, opts RunOptions,
	static func() (*staticrace.Result, *HybridFT, error)) (*invariants.DB, error) {
	extra := []string{fmt.Sprintf("q%d/max%d", opts.Quantum, opts.MaxSteps)}
	for _, e := range execs {
		extra = append(extra, artifacts.ExecKey(prog, e.Inputs, e.Seed))
	}
	v, err := cache.Memo(artifacts.RaceKey(artifacts.KindCustomSync, prog, db, extra...), artifacts.DBCodec(), func() (any, error) {
		pred, sound, err := static()
		if err != nil {
			return nil, err
		}
		set, err := validateLocks(pred, sound, execs, opts)
		if err != nil {
			return nil, err
		}
		out := db.Clone()
		out.ElidableLocks = set
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := db.Clone()
	out.ElidableLocks = v.(*invariants.DB).ElidableLocks.Clone()
	return out, nil
}

// validateLocks performs the iterative no-custom-synchronization
// profiling of §4.2.4: starting from the lock/unlock sites the
// predicated static analysis proposes to elide, it runs FastTrack with
// those sites elided on the executions and compares race reports with
// the sound detector's; if elision introduces false races, the
// instrumentation is restored lock-object group by group until the
// reports agree. When no site is proposed it runs no execution: the
// validated set is empty whatever they would report.
//
// Each execution is interpreted once in the round that first reaches
// it, feeding both detectors (see validateWithSound); later rounds
// rerun only the validation plan, since the sound report does not
// depend on the tentative set.
func validateLocks(pred *staticrace.Result, sound *HybridFT, execs []Execution, opts RunOptions) (*bitset.Set, error) {
	prog := pred.Prog
	tentative := pred.ElidableSyncs.Clone()
	if tentative.IsEmpty() {
		return tentative, ctxErr(opts.Ctx)
	}
	soundReps := make([]*RaceReport, len(execs))
	for {
		val := validationPlan(pred, tentative)
		both := dualPlan(sound.plan, val)
		bad := false
		for i, e := range execs {
			var optRep *RaceReport
			var err error
			if soundReps[i] == nil {
				optRep, soundReps[i], err = validateWithSound(both, val, sound.plan, e, opts)
			} else {
				optRep, err = val.fastTrack(e, opts)
			}
			if err != nil {
				return nil, err
			}
			if !slices.Equal(optRep.Races, soundReps[i].Races) {
				bad = true
				break
			}
		}
		if !bad || tentative.IsEmpty() {
			return tentative, nil
		}
		// Restore instrumentation on one lock-site group and retry.
		restore := tentative.Min()
		tentative.Remove(restore)
		// Also restore the sites sharing an abstract lock object —
		// approximated here by removing unlocks in the same function.
		for _, in := range prog.Instrs {
			if (in.Op == ir.OpLock || in.Op == ir.OpUnlock) &&
				in.Block.Fn == prog.Instrs[restore].Block.Fn {
				tentative.Remove(in.ID)
			}
		}
	}
}

// validationPlan is the plan of a validation run: FastTrack at pred's
// racy accesses and at the lock sites outside elided. It has no image,
// since a validation that restores no site runs only dualPlan's.
func validationPlan(pred *staticrace.Result, elided *bitset.Set) *plan {
	mem, sync := pred.Masks(&invariants.DB{ElidableLocks: elided})
	return &plan{prog: pred.Prog, masks: raceMasks(pred.Prog, mem, sync)}
}

// dualPlan returns the plan of a run that delivers the events of both
// the validation plan and the sound plan: the sound plan itself when
// its masks flag every validation event (they do on every workload:
// the sound plan flags every lock site and the predicated analysis
// keeps a subset of the racy accesses), else a plan whose masks are the
// union of the two.
func dualPlan(sound, val *plan) *plan {
	s, v := sound.masks, val.masks
	if covers(s.Mem, v.Mem) && covers(s.Sync, v.Sync) {
		return sound
	}
	return &plan{prog: sound.prog, masks: raceMasks(sound.prog, unionMask(s.Mem, v.Mem), unionMask(s.Sync, v.Sync))}
}

// validateWithSound interprets e once under both (dualPlan's plan) and
// returns the validation plan's report and the sound plan's: the run
// feeds two FastTrack detectors, each seeing exactly the events its
// own plan flags, so each report equals that of a separate run under
// its plan (the schedule does not depend on the masks).
func validateWithSound(both, val, sound *plan, e Execution, opts RunOptions) (valRep, soundRep *RaceReport, err error) {
	tr := &dualTracer{
		val: fasttrack.New(), sound: fasttrack.New(),
		valMasks: val.masks, soundMasks: sound.masks,
	}
	defer tr.val.Release()
	defer tr.sound.Release()
	res, err := both.run(e, tr, nil, opts)
	if err != nil {
		return nil, nil, err
	}
	return raceReport(tr.val, res), raceReport(tr.sound, res), nil
}

// dualTracer routes one run's FastTrack events to two detectors, each
// filtered by its own plan's Mem and Sync masks; spawns and joins go to
// both. It deliberately does not implement interp.FastTracer: an inline
// fast-path hit settles one detector's shadow state and would skip the
// other's update.
type dualTracer struct {
	interp.NopTracer
	val, sound           *fasttrack.Detector
	valMasks, soundMasks interp.Masks
}

// flagged reports whether mask delivers events at site id (nil: every
// site).
func flagged(mask []bool, id int) bool { return mask == nil || mask[id] }

func (d *dualTracer) Load(t vc.TID, in *ir.Instr, addr interp.Addr, v int64) {
	if flagged(d.valMasks.Mem, in.ID) {
		d.val.Load(t, in, addr, v)
	}
	if flagged(d.soundMasks.Mem, in.ID) {
		d.sound.Load(t, in, addr, v)
	}
}

func (d *dualTracer) Store(t vc.TID, in *ir.Instr, addr interp.Addr, v int64) {
	if flagged(d.valMasks.Mem, in.ID) {
		d.val.Store(t, in, addr, v)
	}
	if flagged(d.soundMasks.Mem, in.ID) {
		d.sound.Store(t, in, addr, v)
	}
}

func (d *dualTracer) Lock(t vc.TID, in *ir.Instr, addr interp.Addr) {
	if flagged(d.valMasks.Sync, in.ID) {
		d.val.Lock(t, in, addr)
	}
	if flagged(d.soundMasks.Sync, in.ID) {
		d.sound.Lock(t, in, addr)
	}
}

func (d *dualTracer) Unlock(t vc.TID, in *ir.Instr, addr interp.Addr) {
	if flagged(d.valMasks.Sync, in.ID) {
		d.val.Unlock(t, in, addr)
	}
	if flagged(d.soundMasks.Sync, in.ID) {
		d.sound.Unlock(t, in, addr)
	}
}

func (d *dualTracer) Spawn(t vc.TID, in *ir.Instr, c vc.TID, f interp.FrameID, fn *ir.Function) {
	d.val.Spawn(t, in, c, f, fn)
	d.sound.Spawn(t, in, c, f, fn)
}

func (d *dualTracer) Join(t vc.TID, in *ir.Instr, c vc.TID) {
	d.val.Join(t, in, c)
	d.sound.Join(t, in, c)
}

// covers reports whether mask sup flags every site mask sub flags (nil:
// every site).
func covers(sup, sub []bool) bool {
	if sup == nil {
		return true
	}
	if sub == nil {
		return false
	}
	for id, on := range sub {
		if on && !sup[id] {
			return false
		}
	}
	return true
}

// unionMask returns the mask flagging every site a or b flags (nil: every
// site).
func unionMask(a, b []bool) []bool {
	if a == nil || b == nil {
		return nil
	}
	out := slices.Clone(a)
	for id, on := range b {
		out[id] = out[id] || on
	}
	return out
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
