package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strconv"

	"oha/internal/artifacts"
	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/dynslice"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/pointsto"
	"oha/internal/staticslice"
	"oha/internal/vc"
)

// SliceReport is the result of one dynamic-slicing run.
type SliceReport struct {
	// Slice is the dynamic backward slice (nil if the criterion never
	// executed).
	Slice *dynslice.Slice
	// Stats are the interpreter event counts (including rollback work).
	Stats interp.Stats
	// TraceNodes is the number of dynamic trace nodes recorded.
	TraceNodes int
	// CheckEvents counts invariant-check events (optimistic runs).
	CheckEvents uint64
	// RolledBack / Violation describe a mis-speculation, if any;
	// Violation is the structured first violation of the speculative
	// run.
	RolledBack bool
	Violation  Violation
	// Output is the analyzed program's output.
	Output []int64
	// IC reports the compiled engine's speculative-dispatch activity
	// (inline-cache hits/misses/deopts, fused superinstructions). For a
	// rolled-back run it includes the aborted speculative execution's
	// counts. Zero under the tree-walking engine.
	IC interp.ICStats
}

// SliceAnalysisType names which static discipline a slicer ended up
// using (the "AT" columns of Table 2).
type SliceAnalysisType string

// Analysis types.
const (
	CS SliceAnalysisType = "CS"
	CI SliceAnalysisType = "CI"
)

// buildSlicer constructs the most precise static slicer that runs
// within budget: context-sensitive first, context-insensitive on
// budget exhaustion — mirroring §6.1.2 ("the most accurate static
// analysis that will complete on that benchmark without exhausting
// available computational resources").
func buildSlicer(prog *ir.Program, db *invariants.DB, budget int) (*staticslice.Slicer, SliceAnalysisType, error) {
	var allowed *invariants.ContextSet
	if db != nil {
		allowed = db.Contexts
	}
	pt, err := pointsto.Analyze(prog, ctxs.NewCS(prog, budget, allowed), db)
	if err == nil {
		return staticslice.New(pt), CS, nil
	}
	if !errors.Is(err, ctxs.ErrBudget) {
		return nil, CI, err
	}
	pt, err = pointsto.Analyze(prog, ctxs.NewCI(prog), db)
	if err != nil {
		return nil, CI, err
	}
	return staticslice.New(pt), CI, nil
}

// slicerArtifact is the in-memory cache value for a built slicer.
type slicerArtifact struct {
	sl *staticslice.Slicer
	at SliceAnalysisType
}

// buildSlicerCached memoizes buildSlicer (nil cache: recompute). The
// slicer is an immutable query structure, safe to share.
func buildSlicerCached(prog *ir.Program, db *invariants.DB, budget int, cache *artifacts.Cache) (*staticslice.Slicer, SliceAnalysisType, error) {
	v, err := cache.Memo(artifacts.Key(artifacts.KindSlicer, prog, db, budget, "restrict"), nil, func() (any, error) {
		sl, at, err := buildSlicer(prog, db, budget)
		if err != nil {
			return nil, err
		}
		return &slicerArtifact{sl: sl, at: at}, nil
	})
	if err != nil {
		return nil, CI, err
	}
	a := v.(*slicerArtifact)
	return a.sl, a.at, nil
}

// sliceStatic is the cached end product of the static slicing pipeline
// for one criterion: the slice plus the analysis discipline that
// produced it. It is portable (IDs only), so it participates in the
// on-disk cache layer — a warm disk cache skips the points-to solve
// entirely.
type sliceStatic struct {
	AT    SliceAnalysisType
	Slice *staticslice.Slice
}

// portableSliceStatic is the gob image of sliceStatic.
type portableSliceStatic struct {
	AT        string
	Criterion int
	Nodes     int
	Instrs    []int
}

// sliceStaticCodec persists sliceStatic artifacts against one program.
type sliceStaticCodec struct{ prog *ir.Program }

func (c sliceStaticCodec) Marshal(v any) ([]byte, error) {
	ss := v.(*sliceStatic)
	p := portableSliceStatic{
		AT:        string(ss.AT),
		Criterion: ss.Slice.Criterion.ID,
		Nodes:     ss.Slice.Nodes,
		Instrs:    ss.Slice.Instrs.Slice(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c sliceStaticCodec) Unmarshal(data []byte) (any, error) {
	var p portableSliceStatic
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, err
	}
	if p.Criterion < 0 || p.Criterion >= len(c.prog.Instrs) {
		return nil, fmt.Errorf("core: cached slice criterion %d out of range", p.Criterion)
	}
	s := &staticslice.Slice{Instrs: &bitset.Set{}, Nodes: p.Nodes, Criterion: c.prog.Instrs[p.Criterion]}
	for _, id := range p.Instrs {
		s.Instrs.Add(id)
	}
	return &sliceStatic{AT: SliceAnalysisType(p.AT), Slice: s}, nil
}

// staticSliceFor returns the (memoized) static slice and analysis type
// for one criterion under the buildSlicer discipline.
func staticSliceFor(prog *ir.Program, db *invariants.DB, criterion *ir.Instr, budget int, cache *artifacts.Cache) (*sliceStatic, error) {
	key := artifacts.Key(artifacts.KindSlice, prog, db, budget, "restrict", "crit:"+strconv.Itoa(criterion.ID))
	v, err := cache.Memo(key, sliceStaticCodec{prog: prog}, func() (any, error) {
		sl, at, err := buildSlicerCached(prog, db, budget, cache)
		if err != nil {
			return nil, err
		}
		return &sliceStatic{AT: at, Slice: sl.BackwardSlice(criterion)}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*sliceStatic), nil
}

// execMaskFor converts a static slice to the interpreter's trace mask.
func execMaskFor(prog *ir.Program, s *staticslice.Slice) []bool {
	mask := make([]bool, len(prog.Instrs))
	s.Instrs.ForEach(func(id int) bool {
		mask[id] = true
		return true
	})
	// The criterion itself must be traced.
	mask[s.Criterion.ID] = true
	return mask
}

// noEvents is the empty non-nil mask: no site of its kind fires an
// event (a nil mask would mean "every site"). The slicers consume only
// Exec, call/ret/spawn and checked-block events, so their images carry
// no Load/Store/Lock/Unlock flags and unflagged memory ops fuse.
var noEvents = []bool{}

// HybridSlicer is the traditional hybrid baseline (hybrid Giri): the
// dynamic slicer tracing only the sound static slice.
type HybridSlicer struct {
	Prog      *ir.Program
	Criterion *ir.Instr
	Static    *staticslice.Slice
	AT        SliceAnalysisType
	// MaxTraceNodes bounds the dynamic trace (0: dynslice default).
	MaxTraceNodes int

	execMask  []bool
	blockMask []bool
	code      *interp.Code
}

// NewHybridSlicer runs the sound static slicer (CS if it fits budget,
// else CI) for one criterion.
func NewHybridSlicer(prog *ir.Program, criterion *ir.Instr, budget int) (*HybridSlicer, error) {
	return NewHybridSlicerCached(prog, criterion, budget, nil)
}

// NewHybridSlicerCached is NewHybridSlicer with static-artifact
// memoization (nil cache: recompute).
func NewHybridSlicerCached(prog *ir.Program, criterion *ir.Instr, budget int, cache *artifacts.Cache) (*HybridSlicer, error) {
	return NewHybridSlicerStatic(prog, criterion, budget, cache, StaticConfig{Workers: 1})
}

// NewHybridSlicerStatic is NewHybridSlicerCached with an explicit
// static pipeline configuration (worker count, engine toggles).
func NewHybridSlicerStatic(prog *ir.Program, criterion *ir.Instr, budget int, cache *artifacts.Cache, cfg StaticConfig) (*HybridSlicer, error) {
	ss, err := staticSliceFor(prog, nil, criterion, budget, cache)
	if err != nil {
		return nil, err
	}
	h := &HybridSlicer{
		Prog:      prog,
		Criterion: criterion,
		Static:    ss.Slice,
		AT:        ss.AT,
		execMask:  execMaskFor(prog, ss.Slice),
		blockMask: make([]bool, len(prog.Blocks)),
	}
	// The sound image assumes no invariants: no IC seeds (nil db).
	h.code = compiledCode(prog, interp.Masks{Mem: noEvents, Sync: noEvents, Exec: h.execMask, Block: h.blockMask}, compileOpts(nil, cfg), cache)
	return h, nil
}

// Run performs one hybrid dynamic slicing of e.
func (h *HybridSlicer) Run(e Execution, opts RunOptions) (*SliceReport, error) {
	tr := dynslice.New(h.Prog, nil)
	if h.MaxTraceNodes > 0 {
		tr.MaxNodes = h.MaxTraceNodes
	}
	cfg := interp.Config{
		Prog:      h.Prog,
		Inputs:    e.Inputs,
		Choose:    e.chooser(),
		Tracer:    tr,
		MemMask:   noEvents,
		SyncMask:  noEvents,
		ExecMask:  h.execMask,
		BlockMask: h.blockMask,
		Code:      h.code,
	}
	opts.apply(&cfg)
	res, err := interp.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &SliceReport{
		Slice:      tr.Slice(h.Criterion),
		Stats:      res.Stats,
		TraceNodes: tr.NodeCount(),
		Output:     res.Output,
		IC:         res.IC,
	}, nil
}

// RunFullGiri traces every instruction (pure dynamic slicing). It
// errors with dynslice.ErrTraceExhausted semantics (via ErrAborted)
// when the trace outgrows maxNodes, reproducing the paper's
// observation that unoptimized Giri exhausts resources on modest
// executions.
func RunFullGiri(prog *ir.Program, criterion *ir.Instr, e Execution, opts RunOptions, maxNodes int) (*SliceReport, error) {
	abort := &interp.Abort{}
	tr := dynslice.New(prog, abort)
	if maxNodes > 0 {
		tr.MaxNodes = maxNodes
	}
	cfg := interp.Config{
		Prog:      prog,
		Inputs:    e.Inputs,
		Choose:    e.chooser(),
		Tracer:    tr,
		ExecAll:   true,
		BlockMask: make([]bool, len(prog.Blocks)),
		Abort:     abort,
	}
	opts.apply(&cfg)
	res, err := interp.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &SliceReport{
		Slice:      tr.Slice(criterion),
		Stats:      res.Stats,
		TraceNodes: tr.NodeCount(),
		Output:     res.Output,
		IC:         res.IC,
	}, nil
}

// OptSlice is the optimistic hybrid slicer (§5): the dynamic slicer
// tracing only the predicated static slice, with invariant checks and
// rollback to the traditional hybrid slicer.
type OptSlice struct {
	Prog      *ir.Program
	DB        *invariants.DB
	Criterion *ir.Instr
	Static    *staticslice.Slice
	AT        SliceAnalysisType
	Sound     *HybridSlicer
	// MaxTraceNodes bounds the dynamic trace (0: dynslice default).
	MaxTraceNodes int

	execMask  []bool
	blockMask []bool
	code      *interp.Code
	tables    *sliceTables
	// NoBloom disables the Bloom-filter fast path of the call-context
	// check (exact set inclusion only) — ablation of the paper's
	// §5.2.3 optimization.
	NoBloom bool
}

// NewOptSlice runs the predicated static slicer (context-sensitive
// with the likely-unused-call-contexts restriction when it fits the
// budget) and prepares the sound fallback.
func NewOptSlice(prog *ir.Program, db *invariants.DB, criterion *ir.Instr, budget int) (*OptSlice, error) {
	return NewOptSliceCached(prog, db, criterion, budget, nil)
}

// NewOptSliceCached is NewOptSlice with static-artifact memoization
// (nil cache: recompute). Masks are private to the returned instance;
// the static slices are shared cached values and must not be mutated.
func NewOptSliceCached(prog *ir.Program, db *invariants.DB, criterion *ir.Instr, budget int, cache *artifacts.Cache) (*OptSlice, error) {
	return NewOptSliceStatic(prog, db, criterion, budget, cache, StaticConfig{Workers: 1})
}

// NewOptSliceStatic is NewOptSliceCached with an explicit static
// pipeline configuration (worker count for the parallel solvers,
// inline-cache/fusion engine toggles).
func NewOptSliceStatic(prog *ir.Program, db *invariants.DB, criterion *ir.Instr, budget int, cache *artifacts.Cache, cfg StaticConfig) (*OptSlice, error) {
	ss, err := staticSliceFor(prog, db, criterion, budget, cache)
	if err != nil {
		return nil, err
	}
	sound, err := NewHybridSlicerStatic(prog, criterion, budget, cache, cfg)
	if err != nil {
		return nil, err
	}
	o := &OptSlice{
		Prog:      prog,
		DB:        db,
		Criterion: criterion,
		Static:    ss.Slice,
		AT:        ss.AT,
		Sound:     sound,
		execMask:  execMaskFor(prog, ss.Slice),
		blockMask: checkedBlockMask(prog, db),
		// The unused-call-contexts invariant is only assumed (and so
		// only needs checking) when the analysis was context-sensitive
		// under the observed-context restriction.
		tables: newSliceTables(prog, db, ss.AT == CS),
	}
	// The speculative image is IC-seeded from the likely callee sets:
	// OptSlice assumes (and checks) exactly those sets, so a cached
	// target is a callee the tracer's checker accepts, and an
	// out-of-set target both misses the cache and raises the
	// callee-set violation that drives refinement.
	o.code = compiledCode(prog, interp.Masks{Mem: noEvents, Sync: noEvents, Exec: o.execMask, Block: o.blockMask}, compileOpts(db, cfg), cache)
	return o, nil
}

// CodeDigest returns the content digest of the speculative run's
// compiled configuration (see OptFT.CodeDigest). Refining a
// callee-set fact changes the IC seeds and therefore the digest.
func (o *OptSlice) CodeDigest() string { return o.code.ConfigDigest() }

// Run performs one speculative dynamic slicing of e, rolling back to
// the traditional hybrid slicer on invariant violation.
func (o *OptSlice) Run(e Execution, opts RunOptions) (*SliceReport, error) {
	abort := &interp.Abort{}
	tr := dynslice.New(o.Prog, abort)
	if o.MaxTraceNodes > 0 {
		tr.MaxNodes = o.MaxTraceNodes
	}
	checker := o.tables.newChecker(abort, o.NoBloom)
	cfg := interp.Config{
		Prog:      o.Prog,
		Inputs:    e.Inputs,
		Choose:    e.chooser(),
		Tracer:    &optSliceTracer{tr: tr, checker: checker},
		MemMask:   noEvents,
		SyncMask:  noEvents,
		ExecMask:  o.execMask,
		BlockMask: o.blockMask,
		Code:      o.code,
		Abort:     abort,
	}
	opts.apply(&cfg)
	res, err := interp.Run(cfg)

	if errors.Is(err, interp.ErrAborted) {
		// Mis-speculation: roll back, re-execute under the sound
		// hybrid slicer.
		rep, err2 := o.Sound.Run(e, opts)
		if err2 != nil {
			return nil, fmt.Errorf("core: rollback re-execution failed: %w", err2)
		}
		rep.RolledBack = true
		rep.Violation = checker.first
		if rep.Violation.None() {
			// The abort was raised by the slicer's trace-node limit,
			// not an invariant check.
			rep.Violation = Violation{Kind: ViolationTraceLimit, Site: -1, Callee: -1, Detail: abort.Reason()}
		}
		rep.CheckEvents = checker.Events
		rep.Stats.Add(res.Stats)
		rep.IC.Add(res.IC)
		opts.observeSlice(o, e, rep)
		return rep, nil
	}
	if err != nil {
		return nil, err
	}
	rep := &SliceReport{
		Slice:       tr.Slice(o.Criterion),
		Stats:       res.Stats,
		TraceNodes:  tr.NodeCount(),
		CheckEvents: checker.Events,
		Output:      res.Output,
		IC:          res.IC,
	}
	opts.observeSlice(o, e, rep)
	return rep, nil
}

// optSliceTracer is the speculative run's combined tracer: the dynamic
// slicer plus the invariant checker, fused into one dispatch (see
// optTracer). Exec goes only to the slicer; the checker consumes the
// call/ret/spawn and checked-block events. No other event is delivered:
// the image flags no memory or sync site.
type optSliceTracer struct {
	interp.NopTracer
	tr      *dynslice.Tracer
	checker *sliceChecker
}

func (o *optSliceTracer) Exec(t vc.TID, in *ir.Instr, f interp.FrameID, a interp.Addr) {
	o.tr.Exec(t, in, f, a)
}

func (o *optSliceTracer) Call(t vc.TID, in *ir.Instr, fn *ir.Function, caller, callee interp.FrameID) {
	o.tr.Call(t, in, fn, caller, callee)
	o.checker.Call(t, in, fn)
}

func (o *optSliceTracer) Spawn(t vc.TID, in *ir.Instr, c vc.TID, f interp.FrameID, fn *ir.Function) {
	o.tr.Spawn(t, in, c, f, fn)
	o.checker.Spawn(t, in, c, fn)
}

func (o *optSliceTracer) Ret(t vc.TID, in *ir.Instr, callee, caller interp.FrameID, dst *ir.Var) {
	o.tr.Ret(t, in, callee, caller, dst)
	o.checker.Ret(t)
}

func (o *optSliceTracer) BlockEnter(t vc.TID, b *ir.Block) {
	o.checker.BlockEnter(t, b)
}
