package core

import (
	"errors"
	"fmt"

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
	// Stats are the interpreter's event counts for the run (including
	// the rollback re-execution, if any).
	Stats interp.Stats
	// FTChecks counts FastTrack read/write metadata operations.
	FTChecks uint64
	// CheckEvents counts invariant-check events (optimistic runs).
	CheckEvents uint64
	// RolledBack reports that the speculative run mis-speculated and
	// the results come from the traditional hybrid re-execution.
	RolledBack bool
	// Violation is the structured mis-speculation reason when
	// RolledBack (the first violation the speculative run raised).
	Violation Violation
	// Output is the analyzed program's output.
	Output []int64
	// IC reports the compiled engine's speculative-dispatch activity
	// (inline-cache hits/misses/deopts, fused superinstructions). For a
	// rolled-back run it includes the aborted speculative execution's
	// counts. Zero under the tree-walking engine.
	IC interp.ICStats
}

// StaticConfig tunes how the static race pipeline is computed. The
// zero value is the sequential from-scratch pipeline. Results are
// digest-identical for every configuration, so Workers/Incremental are
// deliberately NOT part of the static artifact cache keys: a result
// solved with 8 workers serves a sequential consumer, and vice versa.
// The NoIC/NoFusion engine toggles, by contrast, change the compiled
// image and ARE part of the compiled-image key (interp.Code's config
// digest) — though never the analysis results, which stay bit-
// identical under every setting.
type StaticConfig struct {
	// Workers bounds the parallel points-to and race-pair solvers
	// (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Incremental lets consumers (the adapt reconciler, the server job
	// pool) resume from a previous generation's saturated solver state
	// via internal/inc. It has no effect inside this package — the
	// cached constructors here only compute from scratch — but travels
	// with the config so callers thread one value.
	Incremental bool
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

// raceStatic bundles one static race analysis with the masks it
// implies.
type raceStatic struct {
	static *staticrace.Result
	mem    []bool // loads/stores FastTrack must instrument
	sync   []bool // lock/unlock FastTrack must instrument
}

// analyzeRaceStatic runs the (sound or predicated) Chord-style static
// pipeline and derives instrumentation masks. With a non-nil cache the
// points-to, MHP, and static-race stages are memoized by content
// address; the masks are rebuilt fresh on every call because callers
// (ValidateCustomSync) mutate them per instance.
func analyzeRaceStatic(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache, cfg StaticConfig) (*raceStatic, error) {
	v, err := cache.Memo(artifacts.Key(artifacts.KindStaticRace, prog, db, 0, "ci"), artifacts.RaceCodec(prog), func() (any, error) {
		pt, err := pointsToCI(prog, db, cache, cfg)
		if err != nil {
			return nil, err
		}
		m, err := mhpOf(prog, pt, db, cache)
		if err != nil {
			return nil, err
		}
		return staticrace.AnalyzeParallel(prog, pt, m, db, cfg.Workers), nil
	})
	if err != nil {
		return nil, err
	}
	sr := v.(*staticrace.Result)

	mem, sync := sr.Masks(db)
	return &raceStatic{static: sr, mem: mem, sync: sync}, nil
}

// pointsToCI returns the (memoized) context-insensitive points-to
// result for the race pipeline.
func pointsToCI(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache, cfg StaticConfig) (*pointsto.Result, error) {
	v, err := cache.Memo(artifacts.Key(artifacts.KindPointsTo, prog, db, 0, "ci"), artifacts.PointsToCodec(prog, db), func() (any, error) {
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
	v, err := cache.Memo(artifacts.Key(artifacts.KindMHP, prog, db, 0, "ci"), artifacts.MHPCodec(prog), func() (any, error) {
		return mhp.Analyze(prog, pt, db), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mhp.Result), nil
}

// ftAdapter forwards events to a FastTrack detector, filtering sync
// events down to the sites FastTrack actually instruments (the
// interpreter's SyncMask is the union of FastTrack's sites and the
// invariant checks' sites).
type ftAdapter struct {
	interp.NopTracer
	det  *fasttrack.Detector
	sync []bool // nil: all
}

// FastState implements interp.FastTracer by exposing the underlying
// detector's shadow state: the adapter forwards Load/Store to the
// detector one-to-one (only sync events are filtered), so the
// engine's inline memory fast path is exactly as sound here as on the
// bare detector.
func (a *ftAdapter) FastState() *interp.FastState { return a.det.FastState() }

// FlushMem implements interp.FastTracer (see FastState).
func (a *ftAdapter) FlushMem(evs []interp.MemEvent) { a.det.FlushMem(evs) }

func (a *ftAdapter) Load(t vc.TID, in *ir.Instr, addr interp.Addr, v int64) {
	a.det.Load(t, in, addr, v)
}

func (a *ftAdapter) Store(t vc.TID, in *ir.Instr, addr interp.Addr, v int64) {
	a.det.Store(t, in, addr, v)
}

func (a *ftAdapter) Lock(t vc.TID, in *ir.Instr, addr interp.Addr) {
	if a.sync == nil || a.sync[in.ID] {
		a.det.Lock(t, in, addr)
	}
}

func (a *ftAdapter) Unlock(t vc.TID, in *ir.Instr, addr interp.Addr) {
	if a.sync == nil || a.sync[in.ID] {
		a.det.Unlock(t, in, addr)
	}
}

func (a *ftAdapter) Spawn(t vc.TID, in *ir.Instr, c vc.TID, f interp.FrameID, fn *ir.Function) {
	a.det.Spawn(t, in, c, f, fn)
}

func (a *ftAdapter) Join(t vc.TID, in *ir.Instr, c vc.TID) {
	a.det.Join(t, in, c)
}

// optTracer is the speculative run's combined tracer: FastTrack plus
// the invariant checker, fused into one dispatch so the optimistic
// configuration pays no fan-out overhead over the hybrid one.
type optTracer struct {
	interp.NopTracer
	det     *fasttrack.Detector
	checker *raceChecker
	sync    []bool // FastTrack's sync sites (checker sees the rest)
}

// FastState implements interp.FastTracer. Memory events route only to
// the detector (the invariant checker consumes sync/block events, and
// those always drain the ring before delivery), so exposing the
// detector's shadow state — batching included — preserves the exact
// event order both consumers observe.
func (o *optTracer) FastState() *interp.FastState { return o.det.FastState() }

// FlushMem implements interp.FastTracer (see FastState).
func (o *optTracer) FlushMem(evs []interp.MemEvent) { o.det.FlushMem(evs) }

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

func (o *optTracer) BlockEnter(t vc.TID, b *ir.Block) {
	o.checker.BlockEnter(t, b)
}

func raceReport(det *fasttrack.Detector, res *interp.Result) *RaceReport {
	return &RaceReport{
		Races:     det.RaceKeys(),
		RacyAddrs: det.RacyAddrs(),
		Details:   det.Races(),
		Stats:     res.Stats,
		FTChecks:  det.Checks,
		Output:    res.Output,
		IC:        res.IC,
	}
}

// RunPlain executes without any analysis — the "framework overhead"
// baseline of Figure 5.
func RunPlain(prog *ir.Program, e Execution, opts RunOptions) (*interp.Result, error) {
	// Empty masks, not nil ones: a nil mask flags every site, and a
	// flagged memory op cannot fuse even with no tracer installed.
	cfg := interp.Config{Prog: prog, Inputs: e.Inputs, Choose: e.chooser(), MemMask: noEvents, SyncMask: noEvents, BlockMask: noEvents}
	opts.apply(&cfg)
	return interp.Run(cfg)
}

// RunFastTrack executes under full FastTrack instrumentation (the
// unoptimized baseline).
func RunFastTrack(prog *ir.Program, e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.New()
	cfg := interp.Config{
		Prog:      prog,
		Inputs:    e.Inputs,
		Choose:    e.chooser(),
		Tracer:    det,
		BlockMask: make([]bool, len(prog.Blocks)),
	}
	opts.apply(&cfg)
	res, err := interp.Run(cfg)
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
	rs     *raceStatic

	// blockMask is the stored all-false block mask (no BlockEnter
	// events) and code the bytecode image compiled from exactly the
	// masks Run installs, so repeated runs skip recompilation.
	blockMask []bool
	code      *interp.Code
}

// NewHybridFT runs the sound static analysis.
func NewHybridFT(prog *ir.Program) (*HybridFT, error) {
	return NewHybridFTCached(prog, nil)
}

// NewHybridFTCached is NewHybridFT with static-artifact memoization
// (nil cache: recompute). The static pipeline runs sequentially; use
// NewHybridFTStatic to configure parallelism.
func NewHybridFTCached(prog *ir.Program, cache *artifacts.Cache) (*HybridFT, error) {
	return NewHybridFTStatic(prog, cache, StaticConfig{Workers: 1})
}

// NewHybridFTStatic is NewHybridFTCached with an explicit static
// pipeline configuration. The result is digest-identical for every
// configuration; only the solve latency changes.
func NewHybridFTStatic(prog *ir.Program, cache *artifacts.Cache, cfg StaticConfig) (*HybridFT, error) {
	rs, err := analyzeRaceStatic(prog, nil, cache, cfg)
	if err != nil {
		return nil, err
	}
	h := &HybridFT{Prog: prog, Static: rs.static, rs: rs}
	h.blockMask = make([]bool, len(prog.Blocks))
	// The sound image assumes no invariants: no IC seeds (nil db).
	h.code = compiledCode(prog, interp.Masks{Mem: rs.mem, Sync: rs.sync, Block: h.blockMask}, compileOpts(nil, cfg), cache)
	return h, nil
}

// Run executes one analysis under the hybrid instrumentation.
func (h *HybridFT) Run(e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.New()
	cfg := interp.Config{
		Prog:      h.Prog,
		Inputs:    e.Inputs,
		Choose:    e.chooser(),
		Tracer:    det,
		MemMask:   h.rs.mem,
		SyncMask:  h.rs.sync,
		BlockMask: h.blockMask,
		Code:      h.code,
	}
	opts.apply(&cfg)
	res, err := interp.Run(cfg)
	if err != nil {
		return nil, err
	}
	return raceReport(det, res), nil
}

// OptFT is the optimistic hybrid race detector (§4): FastTrack
// optimized by the predicated static analysis, run speculatively with
// invariant checks, rolling back to the traditional hybrid analysis on
// mis-speculation.
type OptFT struct {
	Prog *ir.Program
	DB   *invariants.DB
	// Pred and Sound are the predicated and sound static results.
	Pred  *staticrace.Result
	Sound *HybridFT

	pred *raceStatic
	// unified interpreter masks (FastTrack sites ∪ check sites)
	syncMask  []bool
	blockMask []bool

	// cache memoizes compiled images; code is the speculative run's
	// image, valCode / valBlockMask the ones for validation runs
	// (runWithoutRollback, which installs the raw FastTrack sync mask
	// and no checks). setElidable mutates the masks in place, so both
	// images are re-derived there.
	cache        *artifacts.Cache
	static       StaticConfig
	code         *interp.Code
	valCode      *interp.Code
	valBlockMask []bool
}

// NewOptFT runs both static analyses (predicated for speculation,
// sound for rollback) and prepares masks. The db should already
// contain a validated ElidableLocks set (see ValidateCustomSync);
// with an empty set no lock instrumentation is elided.
func NewOptFT(prog *ir.Program, db *invariants.DB) (*OptFT, error) {
	return NewOptFTCached(prog, db, nil)
}

// NewOptFTCached is NewOptFT with static-artifact memoization (nil
// cache: recompute). Masks and derived state are always private to the
// returned instance; only the immutable static results are shared. The
// static pipeline runs sequentially; use NewOptFTStatic to configure
// parallelism.
func NewOptFTCached(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache) (*OptFT, error) {
	return NewOptFTStatic(prog, db, cache, StaticConfig{Workers: 1})
}

// NewOptFTStatic is NewOptFTCached with an explicit static pipeline
// configuration (worker count for the parallel solvers). With a warm
// cache — in particular one prewarmed by inc.Reanalyze after an
// adaptive refinement — no static solving happens here at all.
func NewOptFTStatic(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache, cfg StaticConfig) (*OptFT, error) {
	pred, err := analyzeRaceStatic(prog, db, cache, cfg)
	if err != nil {
		return nil, err
	}
	sound, err := NewHybridFTStatic(prog, cache, cfg)
	if err != nil {
		return nil, err
	}
	o := &OptFT{Prog: prog, DB: db, Pred: pred.static, Sound: sound, pred: pred}
	o.blockMask = checkedBlockMask(prog, db)
	// Sync events: FastTrack's sites plus the guarding-lock check
	// sites (which need the cheap address check even when FastTrack's
	// lock processing is elided).
	o.syncMask = make([]bool, len(prog.Instrs))
	copy(o.syncMask, pred.sync)
	for pair := range db.MustAliasLocks {
		o.syncMask[pair.A] = true
		o.syncMask[pair.B] = true
	}
	o.cache = cache
	o.static = cfg
	o.valBlockMask = make([]bool, len(prog.Blocks))
	o.recompile()
	return o, nil
}

// recompile re-derives the compiled images from the current masks.
// Both speculative images (the checked run and the validation run) are
// IC-seeded from the database's likely callee sets: an inline cache is
// semantically transparent (a miss just resolves generically), so
// seeding needs no checker support — the callee-set violation itself
// is raised by the tracer, which both images already drive.
func (o *OptFT) recompile() {
	opts := compileOpts(o.DB, o.static)
	o.code = compiledCode(o.Prog, interp.Masks{Mem: o.pred.mem, Sync: o.syncMask, Block: o.blockMask}, opts, o.cache)
	o.valCode = compiledCode(o.Prog, interp.Masks{Mem: o.pred.mem, Sync: o.pred.sync, Block: o.valBlockMask}, opts, o.cache)
}

// CodeDigest returns the content digest of the speculative run's
// compiled configuration (instrumentation masks, IC seeds, fusion) —
// the fingerprint the adaptive speculation manager records per
// generation. Refining a callee-set fact changes the digest.
func (o *OptFT) CodeDigest() string { return o.code.ConfigDigest() }

// ElidedAccesses returns how many loads/stores the predicated analysis
// allows OptFT to skip.
func (o *OptFT) ElidedAccesses() int {
	n := 0
	for _, in := range o.Prog.Instrs {
		if in.IsMemAccess() && !o.pred.mem[in.ID] {
			n++
		}
	}
	return n
}

// Run executes one speculative analysis of e, rolling back to the
// traditional hybrid analysis on invariant violation (or on any race
// report while lock instrumentation is elided, per §4.2.4).
func (o *OptFT) Run(e Execution, opts RunOptions) (*RaceReport, error) {
	abort := &interp.Abort{}
	det := fasttrack.New()
	checker := newRaceChecker(o.Prog, o.DB, abort)
	cfg := interp.Config{
		Prog:      o.Prog,
		Inputs:    e.Inputs,
		Choose:    e.chooser(),
		Tracer:    &optTracer{det: det, checker: checker, sync: o.pred.sync},
		MemMask:   o.pred.mem,
		SyncMask:  o.syncMask,
		BlockMask: o.blockMask,
		Code:      o.code,
		Abort:     abort,
	}
	opts.apply(&cfg)
	res, err := interp.Run(cfg)

	rollback := false
	var reason Violation
	switch {
	case errors.Is(err, interp.ErrAborted):
		rollback = true
		reason = checker.first
		if reason.None() {
			// The abort came from outside the checker (it owns the
			// only tracer here, so this is defensive).
			reason = Violation{Kind: ViolationTraceLimit, Site: -1, Callee: -1, Detail: abort.Reason()}
		}
	case err != nil:
		return nil, err
	case det.HasRaces() && !o.DB.ElidableLocks.IsEmpty():
		// Race reports are potential mis-speculations when lock
		// instrumentation was elided (custom synchronization may have
		// been missed): re-check under the sound hybrid analysis.
		rollback = true
		reason = Violation{Kind: ViolationElidedLockRace, Site: -1, Callee: -1}
	}
	if !rollback {
		rep := raceReport(det, res)
		rep.CheckEvents = checker.Events
		opts.observeRace(o, e, rep)
		return rep, nil
	}

	// Mis-speculation: roll back and re-execute the same recorded
	// execution under the traditional hybrid analysis (§2.3).
	rep, err2 := o.Sound.Run(e, opts)
	if err2 != nil {
		return nil, fmt.Errorf("core: rollback re-execution failed: %w", err2)
	}
	rep.RolledBack = true
	rep.Violation = reason
	rep.CheckEvents = checker.Events
	// Account for the aborted speculative work too.
	rep.Stats.Add(res.Stats)
	rep.IC.Add(res.IC)
	opts.observeRace(o, e, rep)
	return rep, nil
}

// ValidateCustomSync performs the iterative no-custom-synchronization
// profiling of §4.2.4: starting from the lock/unlock sites the
// predicated static analysis proposes to elide, it runs the optimistic
// detector on the profiling executions and compares race reports with
// the sound detector; if elision introduces false races, the
// instrumentation is restored lock-object group by group until the
// reports agree. The validated set is stored in o.DB.ElidableLocks
// (and reflected in the run masks).
func (o *OptFT) ValidateCustomSync(execs []Execution, opts RunOptions) error {
	tentative := o.Pred.ElidableSyncs.Clone()
	for {
		o.setElidable(tentative)
		bad := false
		for _, e := range execs {
			optRep, err := o.runWithoutRollback(e, opts)
			if err != nil {
				return err
			}
			soundRep, err := o.Sound.Run(e, opts)
			if err != nil {
				return err
			}
			if !sameRaceKeys(optRep.Races, soundRep.Races) {
				bad = true
				break
			}
		}
		if !bad || tentative.IsEmpty() {
			return nil
		}
		// Restore instrumentation on one lock-site group and retry.
		restore := tentative.Min()
		tentative.Remove(restore)
		// Also restore the sites sharing an abstract lock object —
		// approximated here by removing unlocks in the same function.
		for _, in := range o.Prog.Instrs {
			if (in.Op == ir.OpLock || in.Op == ir.OpUnlock) &&
				in.Block.Fn == o.Prog.Instrs[restore].Block.Fn {
				tentative.Remove(in.ID)
			}
		}
	}
}

// setElidable updates the elided-lock set and derived masks.
func (o *OptFT) setElidable(set *bitset.Set) {
	o.DB.ElidableLocks = set.Clone()
	for _, in := range o.Prog.Instrs {
		if in.Op == ir.OpLock || in.Op == ir.OpUnlock {
			o.pred.sync[in.ID] = !set.Has(in.ID)
			o.syncMask[in.ID] = o.pred.sync[in.ID]
		}
	}
	for pair := range o.DB.MustAliasLocks {
		o.syncMask[pair.A] = true
		o.syncMask[pair.B] = true
	}
	o.recompile()
}

// runWithoutRollback runs the optimistic configuration but never rolls
// back — used by custom-sync validation, which wants the raw
// (possibly false) race reports.
func (o *OptFT) runWithoutRollback(e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.New()
	cfg := interp.Config{
		Prog:      o.Prog,
		Inputs:    e.Inputs,
		Choose:    e.chooser(),
		Tracer:    &ftAdapter{det: det, sync: o.pred.sync},
		MemMask:   o.pred.mem,
		SyncMask:  o.pred.sync,
		BlockMask: o.valBlockMask,
		Code:      o.valCode,
	}
	opts.apply(&cfg)
	res, err := interp.Run(cfg)
	if err != nil {
		return nil, err
	}
	return raceReport(det, res), nil
}

func sameRaceKeys(a, b []fasttrack.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SameRaces reports whether two runs detected races on exactly the
// same memory addresses — the equivalence FastTrack guarantees across
// instrumentation configurations (the exact access-pair attribution
// within one racy variable may differ with the metadata state; see
// fasttrack.Key). Both reports must come from the same Execution.
func SameRaces(a, b *RaceReport) bool {
	if len(a.RacyAddrs) != len(b.RacyAddrs) {
		return false
	}
	for i := range a.RacyAddrs {
		if a.RacyAddrs[i] != b.RacyAddrs[i] {
			return false
		}
	}
	return true
}

// RunDJIT executes under the DJIT+-style full-vector-clock detector —
// the ablation baseline for FastTrack's epoch optimization.
func RunDJIT(prog *ir.Program, e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.NewDJIT()
	cfg := interp.Config{
		Prog:      prog,
		Inputs:    e.Inputs,
		Choose:    e.chooser(),
		Tracer:    det,
		BlockMask: make([]bool, len(prog.Blocks)),
	}
	opts.apply(&cfg)
	res, err := interp.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &RaceReport{
		RacyAddrs: det.RacyAddrs(),
		Stats:     res.Stats,
		FTChecks:  det.Checks,
		Output:    res.Output,
	}, nil
}
