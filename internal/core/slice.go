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
	// TraceNodes is the number of dynamic trace nodes recorded.
	TraceNodes int
	Outcome
}

// SliceAnalysisType names which static discipline a slicer ended up
// using (the "AT" columns of Table 2).
type SliceAnalysisType string

// Analysis types.
const (
	CS SliceAnalysisType = "CS"
	CI SliceAnalysisType = "CI"
)

// SlicerFacts is the projection of an invariant database the budgeted
// static slicer reads: the points-to facts (nil: sound), the contexts
// the context-sensitive tree may clone (nil: all) and the budget.
type SlicerFacts struct {
	PointsTo *pointsto.Facts
	Contexts *invariants.ContextSet
	Budget   int
}

// SlicerFactsOf projects db (nil: the sound slicer) at budget.
func SlicerFactsOf(db *invariants.DB, budget int) SlicerFacts {
	f := SlicerFacts{PointsTo: pointsto.FactsOf(db), Budget: budget}
	if db != nil {
		f.Contexts = db.Contexts
	}
	return f
}

// key is the slicer solve's cache key: the digest of f.
func (f SlicerFacts) key(prog *ir.Program) string {
	return artifacts.Key(artifacts.KindSlicer, prog, f.PointsTo.Digest(),
		new(invariants.Text).Contexts(f.Contexts).Digest(), strconv.Itoa(f.Budget))
}

// BuildSlicer returns the most precise static slicer of prog under f
// that fits f.Budget, context-sensitive else context-insensitive
// (§6.1.2: "the most accurate static analysis that will complete"),
// and its analysis type, memoized in cache (nil: recompute). The
// slicer is an immutable query structure, safe to share.
func BuildSlicer(prog *ir.Program, f SlicerFacts, cache *artifacts.Cache) (*staticslice.Slicer, SliceAnalysisType, error) {
	v, err := cache.Memo(f.key(prog), nil, func() (any, error) {
		pt, err := pointsto.Solve(prog, ctxs.NewCS(prog, f.Budget, f.Contexts), f.PointsTo, 1)
		if errors.Is(err, ctxs.ErrBudget) {
			pt, err = pointsto.Solve(prog, ctxs.NewCI(prog), f.PointsTo, 1)
		}
		if err != nil {
			return nil, err
		}
		return staticslice.New(pt), nil
	})
	if err != nil {
		return nil, CI, err
	}
	sl := v.(*staticslice.Slicer)
	if sl.PointsTo().Tree.Sensitive() {
		return sl, CS, nil
	}
	return sl, CI, nil
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

// staticSliceKey keys the static slice of criterion: the key of the
// slicer it is sliced from plus the criterion.
func staticSliceKey(prog *ir.Program, slicerKey string, criterion *ir.Instr) string {
	return artifacts.Key(artifacts.KindSlice, prog, slicerKey, "crit:"+strconv.Itoa(criterion.ID))
}

// staticSliceFor returns the (memoized) static slice of one criterion
// and its analysis type under f.
func staticSliceFor(prog *ir.Program, f SlicerFacts, criterion *ir.Instr, cache *artifacts.Cache) (*sliceStatic, error) {
	v, err := cache.Memo(staticSliceKey(prog, f.key(prog), criterion), sliceStaticCodec{prog: prog}, func() (any, error) {
		sl, at, err := BuildSlicer(prog, f, cache)
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

// Prints returns prog's print instructions in order — the pool of
// slice criteria.
func Prints(prog *ir.Program) []*ir.Instr {
	var out []*ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpPrint {
			out = append(out, in)
		}
	}
	return out
}

// SliceCriterion resolves a slice request's criterion: print number
// *idx of prog in program order, or the last print when idx is nil. It
// returns the print's number and instruction.
func SliceCriterion(prog *ir.Program, idx *int) (int, *ir.Instr, error) {
	prints := Prints(prog)
	if len(prints) == 0 {
		return 0, nil, errors.New("program has no print statements to slice from")
	}
	i := len(prints) - 1
	if idx != nil {
		i = *idx
		if i < 0 || i >= len(prints) {
			return 0, nil, fmt.Errorf("criterion %d out of range (program has %d prints)", i, len(prints))
		}
	}
	return i, prints[i], nil
}

// execMaskFor converts a static slice to the interpreter's trace mask.
func execMaskFor(prog *ir.Program, s *staticslice.Slice) []bool {
	mask := siteFlags(prog, s.Instrs)
	// The criterion itself must be traced.
	mask[s.Criterion.ID] = true
	return mask
}

// HybridSlicer is the traditional hybrid baseline (hybrid Giri): the
// dynamic slicer tracing only the sound static slice.
type HybridSlicer struct {
	Prog      *ir.Program
	Criterion *ir.Instr
	Static    *staticslice.Slice
	AT        SliceAnalysisType
	// MaxTraceNodes bounds the dynamic trace (0: dynslice default).
	MaxTraceNodes int

	plan *plan
}

// sliceMasks trace the instructions in exec and deliver block events
// exactly at block. The slicers consume only Exec, call/ret/spawn and
// checked-block events, so their images carry no Load/Store/Lock/Unlock
// flags and memory ops fuse.
func sliceMasks(exec, block []bool) interp.Masks {
	return interp.Masks{Mem: noEvents, Sync: noEvents, Exec: exec, Block: block}
}

// NewHybridSlicer runs the sound static slicer (CS if it fits budget,
// else CI) for one criterion.
func NewHybridSlicer(prog *ir.Program, criterion *ir.Instr, budget int, cfg StaticConfig) (*HybridSlicer, error) {
	ss, err := staticSliceFor(prog, SlicerFactsOf(nil, budget), criterion, cfg.Cache)
	if err != nil {
		return nil, err
	}
	// The sound image assumes no invariants: no IC seeds (nil db).
	p := compiledCode(prog, sliceMasks(execMaskFor(prog, ss.Slice), make([]bool, len(prog.Blocks))), compileOpts(nil, cfg), cfg.Cache)
	return &HybridSlicer{Prog: prog, Criterion: criterion, Static: ss.Slice, AT: ss.AT, plan: p}, nil
}

// Run performs one hybrid dynamic slicing of e. Like RunFullGiri it
// errors when the trace outgrows MaxTraceNodes: a truncated trace
// would yield a wrong slice.
func (h *HybridSlicer) Run(e Execution, opts RunOptions) (*SliceReport, error) {
	return h.plan.slice(h.Criterion, e, opts, h.MaxTraceNodes)
}

// RunFullGiri traces every instruction (pure dynamic slicing). It
// errors with dynslice.ErrTraceExhausted semantics (via ErrAborted)
// when the trace outgrows maxNodes, reproducing the paper's
// observation that unoptimized Giri exhausts resources on modest
// executions.
func RunFullGiri(prog *ir.Program, criterion *ir.Instr, e Execution, opts RunOptions, maxNodes int) (*SliceReport, error) {
	m := interp.Masks{ExecAll: true, Block: make([]bool, len(prog.Blocks))}
	return (&plan{prog: prog, masks: m}).slice(criterion, e, opts, maxNodes)
}

// slice runs e under p with a dynamic slicer bounded by maxNodes (0:
// dynslice default); outgrowing the bound aborts the run with
// interp.ErrAborted.
func (p *plan) slice(criterion *ir.Instr, e Execution, opts RunOptions, maxNodes int) (*SliceReport, error) {
	abort := &interp.Abort{}
	tr := dynslice.New(p.prog, abort)
	defer tr.Release()
	if maxNodes > 0 {
		tr.MaxNodes = maxNodes
	}
	res, err := p.run(e, tr, abort, opts)
	if err != nil {
		return nil, err
	}
	return sliceReport(tr, criterion, res), nil
}

// OptSlice is the optimistic hybrid slicer (§5): the dynamic slicer
// tracing only the predicated static slice, with invariant checks and
// rollback to a refined generation or the traditional hybrid slicer.
type OptSlice struct {
	Prog      *ir.Program
	DB        *invariants.DB
	Criterion *ir.Instr
	Static    *staticslice.Slice
	AT        SliceAnalysisType
	// MaxTraceNodes bounds the dynamic trace of every run, speculative
	// or sound (0: dynslice default). Refined generations copy it when
	// they are built, so set it before the first Run.
	MaxTraceNodes int

	plan   *plan
	checks *checks
	budget int
	static StaticConfig
	gens   *generations[*OptSlice, *HybridSlicer]
}

// NewOptSlice runs the predicated static slicer (context-sensitive
// with the likely-unused-call-contexts restriction when it fits the
// budget); the sound slicer, the rollback target, is built the first
// time a run falls through to it.
func NewOptSlice(prog *ir.Program, db *invariants.DB, criterion *ir.Instr, budget int) (*OptSlice, error) {
	return NewOptSliceStatic(prog, db, criterion, budget, StaticConfig{Workers: 1})
}

// NewOptSliceCached is NewOptSlice with static-artifact memoization.
func NewOptSliceCached(prog *ir.Program, db *invariants.DB, criterion *ir.Instr, budget int, cache *artifacts.Cache) (*OptSlice, error) {
	return NewOptSliceStatic(prog, db, criterion, budget, StaticConfig{Cache: cache, Workers: 1})
}

// NewOptSliceStatic is NewOptSlice with an explicit static pipeline
// configuration (artifact cache, worker count for the parallel
// solvers, inline-cache/fusion engine toggles). Masks are private to
// the returned instance; the static slices are shared cached values
// and must not be mutated.
func NewOptSliceStatic(prog *ir.Program, db *invariants.DB, criterion *ir.Instr, budget int, cfg StaticConfig) (*OptSlice, error) {
	gens := newGenerations[*OptSlice](func() (*HybridSlicer, error) { return NewHybridSlicer(prog, criterion, budget, cfg) })
	return newOptSlice(prog, db, criterion, budget, cfg, gens)
}

// newOptSlice builds the OptSlice for db, sharing gens (and its sound
// fallback) with the generations it is refined from.
func newOptSlice(prog *ir.Program, db *invariants.DB, criterion *ir.Instr, budget int, cfg StaticConfig,
	gens *generations[*OptSlice, *HybridSlicer]) (*OptSlice, error) {
	ss, err := staticSliceFor(prog, SlicerFactsOf(db, budget), criterion, cfg.Cache)
	if err != nil {
		return nil, err
	}
	// The kinds the predicated slice reads (TestChecksCoverReads). The
	// unused-call-contexts invariant is only assumed (and so only
	// checked) when the analysis was context-sensitive under the
	// observed-context restriction.
	reads := []ViolationKind{ViolationUnreachableBlock, ViolationCalleeSet}
	if ss.AT == CS {
		reads = append(reads, ViolationCallContext)
	}
	checks := newChecks(prog, db, nil, reads...)
	// The speculative image is IC-seeded from the likely callee sets:
	// OptSlice assumes (and checks) exactly those sets, so a cached
	// target is a callee the tracer's checker accepts, and an
	// out-of-set target both misses the cache and raises the
	// callee-set violation that drives refinement.
	p := compiledCode(prog, sliceMasks(execMaskFor(prog, ss.Slice), checks.luc), compileOpts(db, cfg), cfg.Cache)
	return &OptSlice{
		Prog:      prog,
		DB:        db,
		Criterion: criterion,
		Static:    ss.Slice,
		AT:        ss.AT,
		plan:      p,
		checks:    checks,
		budget:    budget,
		static:    cfg,
		gens:      gens,
	}, nil
}

// CodeDigest returns the content digest of the speculative run's
// compiled configuration (see OptFT.CodeDigest). Refining a
// callee-set fact changes the IC seeds and therefore the digest.
func (o *OptSlice) CodeDigest() string { return o.plan.code.ConfigDigest() }

// Run performs one speculative dynamic slicing of e, rolling back to a
// refined generation or the traditional hybrid slicer on invariant
// violation (speculate).
func (o *OptSlice) Run(e Execution, opts RunOptions) (*SliceReport, error) {
	return speculate(o, e, opts)
}

func (o *OptSlice) try(e Execution, opts RunOptions) (*SliceReport, *Outcome, error) {
	checker := o.checks.newChecker()
	tr := dynslice.New(o.Prog, checker.abort)
	defer tr.Release()
	tr.MaxNodes = o.MaxTraceNodes
	report := func(res *interp.Result) *SliceReport { return sliceReport(tr, o.Criterion, res) }
	return attempt(o.plan, &optSliceTracer{checker: checker, tr: tr}, &checker.checkState, e, opts, report, nil)
}

func (o *OptSlice) facts() (*ir.Program, *invariants.DB) { return o.Prog, o.DB }

func (o *OptSlice) refined(db *invariants.DB) (optimistic[*SliceReport], error) {
	return o.gens.get(db, func() (*OptSlice, error) {
		g, err := newOptSlice(o.Prog, db, o.Criterion, o.budget, o.static, o.gens)
		if err == nil {
			g.MaxTraceNodes = o.MaxTraceNodes
		}
		return g, err
	})
}

func (o *OptSlice) sound(e Execution, opts RunOptions) (*SliceReport, error) {
	h, err := o.gens.sound.get()
	if err != nil {
		return nil, err
	}
	return h.plan.slice(o.Criterion, e, opts, o.MaxTraceNodes)
}

func (o *OptSlice) memoized(db *invariants.DB) (*OptSlice, bool) { return o.gens.lookup(db) }

// sliceReport assembles one slicing run's report.
func sliceReport(tr *dynslice.Tracer, criterion *ir.Instr, res *interp.Result) *SliceReport {
	return &SliceReport{Slice: tr.Slice(criterion), TraceNodes: tr.NodeCount(), Outcome: outcomeOf(res)}
}

// optSliceTracer is the speculative run's tracer: the run's invariant
// checker plus the dynamic slicer's events. Exec goes only to the
// slicer; the checker consumes the call/ret/spawn and checked-block
// events. No other event is delivered: the image flags no memory or
// sync site.
type optSliceTracer struct {
	*checker
	tr *dynslice.Tracer
}

func (o *optSliceTracer) Exec(t vc.TID, in *ir.Instr, f interp.FrameID, a interp.Addr) {
	o.tr.Exec(t, in, f, a)
}

func (o *optSliceTracer) Call(t vc.TID, in *ir.Instr, fn *ir.Function, caller, callee interp.FrameID) {
	o.tr.Call(t, in, fn, caller, callee)
	o.checker.Call(t, in, fn, caller, callee)
}

func (o *optSliceTracer) Spawn(t vc.TID, in *ir.Instr, c vc.TID, f interp.FrameID, fn *ir.Function) {
	o.tr.Spawn(t, in, c, f, fn)
	o.checker.Spawn(t, in, c, f, fn)
}

func (o *optSliceTracer) Ret(t vc.TID, in *ir.Instr, callee, caller interp.FrameID, dst *ir.Var) {
	o.tr.Ret(t, in, callee, caller, dst)
	o.checker.Ret(t, in, callee, caller, dst)
}
