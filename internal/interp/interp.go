// Package interp executes MiniLang IR under a deterministic
// cooperative scheduler, delivering per-site instrumentation events to
// a Tracer.
//
// It is this reproduction's stand-in for the paper's dynamic-analysis
// substrates (RoadRunner for OptFT, Giri's LLVM instrumentation for
// OptSlice): dynamic analyses subscribe to events, and hybrid
// analyses elide instrumentation by clearing per-site mask bits, which
// skips both the event delivery and its bookkeeping cost — so, as in
// the paper, dynamic-analysis overhead is roughly proportional to the
// number of instrumented operations actually executed.
package interp

import (
	"context"
	"errors"
	"fmt"

	"oha/internal/ir"
	"oha/internal/sched"
	"oha/internal/vc"
)

// Abort is a flag a Tracer can set to stop the current execution; the
// optimistic analyses use it to signal invariant mis-speculation.
type Abort struct {
	reason string
	set    bool
}

// Set raises the flag (first reason wins).
func (a *Abort) Set(reason string) {
	if !a.set {
		a.set = true
		a.reason = reason
	}
}

// IsSet reports whether the flag was raised.
func (a *Abort) IsSet() bool { return a.set }

// Reason returns the first abort reason.
func (a *Abort) Reason() string { return a.reason }

// ErrAborted is returned (wrapped) when a tracer raises the abort
// flag.
var ErrAborted = errors.New("interp: execution aborted by tracer")

// ErrStepLimit is returned (wrapped) when execution exceeds MaxSteps.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// ErrCanceled is returned (wrapped) when Config.Ctx is canceled — the
// substrate for per-job timeouts and daemon shutdown. Cancellation is
// polled once per scheduling quantum, so a runaway execution stops
// within Quantum instructions of the deadline.
var ErrCanceled = errors.New("interp: execution canceled")

// ErrDeadlock is returned when live threads exist but none can run.
var ErrDeadlock = errors.New("interp: deadlock")

// RuntimeError is a MiniLang-level trap (bad address, argument-count
// mismatch on an indirect call, unlock of an unheld mutex, …).
type RuntimeError struct {
	TID   vc.TID
	Instr *ir.Instr
	Msg   string
}

func (e *RuntimeError) Error() string {
	where := "?"
	if e.Instr != nil {
		where = fmt.Sprintf("%s (instr %d at %s)", e.Instr, e.Instr.ID, e.Instr.Pos)
	}
	return fmt.Sprintf("interp: thread %d: %s: %s", e.TID, e.Msg, where)
}

// Stats counts delivered instrumentation events and executed steps.
// Event counts are the deterministic "work" metric the benchmark
// harness reports alongside wall-clock time.
type Stats struct {
	Steps       uint64 // instructions executed
	Loads       uint64 // instrumented load events delivered
	Stores      uint64 // instrumented store events delivered
	Locks       uint64 // instrumented lock events
	Unlocks     uint64 // instrumented unlock events
	Spawns      uint64
	Joins       uint64
	BlockEvents uint64
	CallEvents  uint64
	ExecEvents  uint64
	// NullChecks counts residual null checks executed (load/store sites
	// flagged by Masks.Null), whether or not the address was nil. It is
	// the work metric the OptNull client's static phase elides.
	NullChecks uint64
}

// Add accumulates another run's counters into s (used when a rolled-
// back speculative run's work is charged to the final analysis).
func (s *Stats) Add(o Stats) {
	s.Steps += o.Steps
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Locks += o.Locks
	s.Unlocks += o.Unlocks
	s.Spawns += o.Spawns
	s.Joins += o.Joins
	s.BlockEvents += o.BlockEvents
	s.CallEvents += o.CallEvents
	s.ExecEvents += o.ExecEvents
	s.NullChecks += o.NullChecks
}

// InstrumentedOps returns the total number of delivered events plus
// executed null checks — the dynamic-analysis work an execution
// performed.
func (s Stats) InstrumentedOps() uint64 {
	return s.Loads + s.Stores + s.Locks + s.Unlocks + s.Spawns + s.Joins +
		s.BlockEvents + s.ExecEvents + s.NullChecks
}

// EngineKind selects the execution engine for Run.
type EngineKind uint8

const (
	// EngineCompiled (the default) lowers the program to flat bytecode
	// with pre-resolved operands and baked instrumentation flags before
	// executing. See compile.go / engine.go.
	EngineCompiled EngineKind = iota
	// EngineTree is the reference tree-walking interpreter. It is kept
	// as the semantic oracle for differential testing.
	EngineTree
)

// Config configures one execution.
type Config struct {
	Prog   *ir.Program
	Inputs []int64
	Tracer Tracer        // nil: no events at all
	Choose sched.Chooser // nil: round-robin

	// Engine selects the execution engine (default: EngineCompiled).
	// Both engines are bit-identical: same outputs, event streams,
	// Stats, and trap messages.
	Engine EngineKind

	// Code, when non-nil, is a precompiled image of Prog (from Compile)
	// used by EngineCompiled; Masks is ignored in favor of the flags
	// baked into it. When nil, Run compiles Prog with Masks on entry.
	Code *Code

	// Quantum is the maximum number of instructions a thread runs
	// before the scheduler picks again (sync operations always end the
	// quantum early). Default 32.
	Quantum int
	// MaxSteps bounds total executed instructions. Default 100M.
	MaxSteps uint64

	// Masks selects the instrumented sites (see Masks). Eliding
	// instrumentation = clearing bits.
	Masks Masks

	// Abort, if non-nil, is polled after every instruction.
	Abort *Abort

	// Ctx, if non-nil, cancels the execution: its Done channel is
	// polled once per scheduling quantum and a closed channel ends the
	// run with ErrCanceled (wrapping the context's error).
	Ctx context.Context
}

// ICStats counts the compiled engine's speculative-dispatch activity
// in one run. It is deliberately separate from Stats: Stats is part of
// the engines' bit-identical observable behavior (the differential
// suite compares it across engines), while ICStats describes how the
// compiled engine got there — the tree-walker always reports zeros.
type ICStats struct {
	// Hits counts indirect dispatches served by an inline cache.
	Hits uint64
	// Misses counts dispatches at deoptimized (dead) IC sites, resolved
	// generically.
	Misses uint64
	// Deopts counts IC sites killed by their first out-of-cache target
	// (at most one per seeded site per run).
	Deopts uint64
	// Fused counts fused superinstructions executed: each is one
	// dispatch that retired two instructions.
	Fused uint64
	// FastPath reports inline tracer fast-path activity (fastpath.go):
	// Hits are events settled in the dispatch loop without an interface
	// call, Slow are events that fell back to the full Tracer method.
	// Both zero when no FastTracer is armed.
	FastPath FastPathStats
}

// FastPathStats counts inline tracer fast-path activity. Like the
// rest of ICStats it describes how the compiled engine got its result,
// not the result itself: analysis reports and Stats are bit-identical
// with the fast path on or off.
type FastPathStats struct {
	Hits uint64
	Slow uint64
}

// Add accumulates o into s (used when a rolled-back run's stats are
// folded into the sound re-execution's report).
func (s *ICStats) Add(o ICStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Deopts += o.Deopts
	s.Fused += o.Fused
	s.FastPath.Hits += o.FastPath.Hits
	s.FastPath.Slow += o.FastPath.Slow
}

// Result is the outcome of an execution.
type Result struct {
	Output  []int64
	Stats   Stats
	Threads int // total threads created (including main)
	// IC reports speculative-dispatch activity (compiled engine only;
	// always zero under the tree-walker). Not part of the observable
	// behavior contract.
	IC ICStats
}

type tstate uint8

const (
	tRunning tstate = iota
	tBlockedLock
	tBlockedJoin
	tDone
)

type frame struct {
	id     FrameID
	fn     *ir.Function
	regs   []int64
	block  *ir.Block
	idx    int
	retDst *ir.Var // caller register receiving the return value
}

type thread struct {
	id       vc.TID
	frames   []*frame
	state    tstate
	waitAddr Addr   // valid when tBlockedLock
	waitTID  vc.TID // valid when tBlockedJoin
}

type lockState struct {
	holder vc.TID // -1 when free
}

// Interp is the execution engine. Create one per run with New.
type Interp struct {
	cfg     Config
	prog    *ir.Program
	objects [][]int64 // heap: objects[0] is the globals object
	locks   map[Addr]*lockState
	threads []*thread
	output  []int64
	stats   Stats
	nextFID FrameID
	chooser sched.Chooser
	ctxDone <-chan struct{} // Config.Ctx.Done(), nil when no context
	runq    []vc.TID        // scratch for runnable(), reused across picks
}

// New prepares an execution of cfg.Prog.
func New(cfg Config) *Interp {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 32
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 100_000_000
	}
	ch := cfg.Choose
	if ch == nil {
		ch = &sched.RoundRobin{}
	}
	it := &Interp{
		cfg:     cfg,
		prog:    cfg.Prog,
		locks:   map[Addr]*lockState{},
		chooser: ch,
	}
	if cfg.Ctx != nil {
		it.ctxDone = cfg.Ctx.Done()
	}
	globals := make([]int64, len(cfg.Prog.Globals))
	for i, g := range cfg.Prog.Globals {
		globals[i] = g.Init
	}
	it.objects = append(it.objects, globals)
	return it
}

// Run executes the program to completion (or error) and returns the
// result. The result is also returned alongside errors so callers can
// inspect partial output and stats.
func Run(cfg Config) (*Result, error) {
	if cfg.Engine == EngineCompiled {
		return runCompiled(cfg)
	}
	it := New(cfg)
	err := it.run()
	return &Result{Output: it.output, Stats: it.stats, Threads: len(it.threads)}, err
}

func (it *Interp) trap(t *thread, in *ir.Instr, format string, args ...any) error {
	return &RuntimeError{TID: t.id, Instr: in, Msg: fmt.Sprintf(format, args...)}
}

func (it *Interp) newFrame(fn *ir.Function, args []int64, retDst *ir.Var) *frame {
	it.nextFID++
	fr := &frame{
		id:    it.nextFID,
		fn:    fn,
		regs:  make([]int64, len(fn.Vars)),
		block: fn.Entry,
	}
	for i, p := range fn.Params {
		fr.regs[p.ID] = args[i]
	}
	fr.retDst = retDst
	return fr
}

func (it *Interp) spawnThread(fn *ir.Function, args []int64) *thread {
	th := &thread{id: vc.TID(len(it.threads))}
	th.frames = []*frame{it.newFrame(fn, args, nil)}
	it.threads = append(it.threads, th)
	return th
}

// runnable returns the ids of threads that can make progress now.
// Threads are visited in id order, so the result is already sorted;
// the scratch slice is reused across scheduling decisions.
func (it *Interp) runnable() []vc.TID {
	out := it.runq[:0]
	for _, th := range it.threads {
		switch th.state {
		case tRunning:
			out = append(out, th.id)
		case tBlockedLock:
			ls := it.locks[th.waitAddr]
			if ls == nil || ls.holder == -1 {
				out = append(out, th.id)
			}
		case tBlockedJoin:
			if it.threads[th.waitTID].state == tDone {
				out = append(out, th.id)
			}
		}
	}
	it.runq = out
	return out
}

func (it *Interp) run() error {
	main := it.prog.Main()
	if main == nil {
		return errors.New("interp: program has no main")
	}
	mainTh := it.spawnThread(main, nil)
	it.enterBlock(mainTh, main.Entry)

	for {
		run := it.runnable()
		if len(run) == 0 {
			for _, th := range it.threads {
				if th.state != tDone {
					return fmt.Errorf("%w: thread %d waiting", ErrDeadlock, th.id)
				}
			}
			return nil // all threads finished
		}
		var pick vc.TID
		if len(run) == 1 {
			pick = run[0]
		} else {
			pick = it.chooser.Choose(run)
		}
		if err := it.runSlice(it.threads[pick]); err != nil {
			return err
		}
	}
}

// runSlice executes up to one quantum of the given thread.
func (it *Interp) runSlice(th *thread) error {
	if it.ctxDone != nil {
		select {
		case <-it.ctxDone:
			return fmt.Errorf("%w: %v", ErrCanceled, it.cfg.Ctx.Err())
		default:
		}
	}
	for q := 0; q < it.cfg.Quantum; q++ {
		if it.stats.Steps >= it.cfg.MaxSteps {
			return fmt.Errorf("%w (%d)", ErrStepLimit, it.cfg.MaxSteps)
		}
		yield, err := it.step(th)
		if err != nil {
			return err
		}
		if it.cfg.Abort != nil && it.cfg.Abort.IsSet() {
			return fmt.Errorf("%w: %s", ErrAborted, it.cfg.Abort.Reason())
		}
		if yield || th.state != tRunning {
			return nil
		}
	}
	return nil
}

func (it *Interp) enterBlock(th *thread, b *ir.Block) {
	fr := th.frames[len(th.frames)-1]
	fr.block = b
	fr.idx = 0
	if it.cfg.Tracer != nil && masked(it.cfg.Masks.Block, b.ID) {
		it.stats.BlockEvents++
		it.cfg.Tracer.BlockEnter(th.id, b)
	}
}

func masked(mask []bool, id int) bool {
	return mask == nil || (id < len(mask) && mask[id])
}

func (it *Interp) eval(fr *frame, op ir.Operand) int64 {
	switch op.Kind {
	case ir.OperConst:
		return op.Const
	case ir.OperVar:
		return fr.regs[op.Var.ID]
	case ir.OperGlobal:
		return MakeAddr(GlobalObj, int64(op.Global.ID))
	case ir.OperFunc:
		return MakeFunc(op.Func.ID)
	}
	return 0
}

func (it *Interp) mem(t *thread, in *ir.Instr, a int64) (*int64, error) {
	if !IsPtr(a) {
		return nil, it.trap(t, in, "memory access through non-pointer value %s", FormatValue(a))
	}
	obj, off := DecodeAddr(a)
	if obj >= len(it.objects) || it.objects[obj] == nil {
		return nil, it.trap(t, in, "access to unallocated object %d", obj)
	}
	cells := it.objects[obj]
	if off < 0 || off >= int64(len(cells)) {
		return nil, it.trap(t, in, "out-of-bounds access: offset %d of object %d (size %d)", off, obj, len(cells))
	}
	return &cells[off], nil
}

func evalBin(op ir.BinOp, a, b int64) int64 {
	switch op {
	case ir.BinAdd:
		return a + b
	case ir.BinSub:
		return a - b
	case ir.BinMul:
		return a * b
	case ir.BinDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case ir.BinMod:
		if b == 0 {
			return 0
		}
		return a % b
	case ir.BinLt:
		return b2i(a < b)
	case ir.BinLe:
		return b2i(a <= b)
	case ir.BinGt:
		return b2i(a > b)
	case ir.BinGe:
		return b2i(a >= b)
	case ir.BinEq:
		return b2i(a == b)
	case ir.BinNe:
		return b2i(a != b)
	case ir.BinAnd:
		return a & b
	case ir.BinOr:
		return a | b
	case ir.BinXor:
		return a ^ b
	case ir.BinShl:
		return a << (uint64(b) & 63)
	case ir.BinShr:
		return a >> (uint64(b) & 63)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// resolveCallee determines the target of a call/spawn and checks the
// argument count.
func (it *Interp) resolveCallee(th *thread, fr *frame, in *ir.Instr) (*ir.Function, error) {
	if in.Callee != nil {
		return in.Callee, nil
	}
	v := it.eval(fr, in.A)
	if !IsFunc(v) {
		return nil, it.trap(th, in, "indirect call through non-function value %s", FormatValue(v))
	}
	f := it.prog.Funcs[DecodeFunc(v)]
	if len(in.Args) != len(f.Params) {
		return nil, it.trap(th, in, "indirect call to %s with %d args, want %d", f.Name, len(in.Args), len(f.Params))
	}
	return f, nil
}

// step executes one instruction of th. It reports whether the
// scheduler should pick again (sync point or block/exit).
func (it *Interp) step(th *thread) (yield bool, err error) {
	fr := th.frames[len(th.frames)-1]
	in := fr.block.Instrs[fr.idx]
	tr := it.cfg.Tracer
	it.stats.Steps++
	var accessAddr Addr

	switch in.Op {
	case ir.OpCopy:
		fr.regs[in.Dst.ID] = it.eval(fr, in.A)
		fr.idx++
	case ir.OpUn:
		a := it.eval(fr, in.A)
		if in.Un == ir.UnNeg {
			fr.regs[in.Dst.ID] = -a
		} else {
			fr.regs[in.Dst.ID] = b2i(a == 0)
		}
		fr.idx++
	case ir.OpBin:
		fr.regs[in.Dst.ID] = evalBin(in.Bin, it.eval(fr, in.A), it.eval(fr, in.B))
		fr.idx++
	case ir.OpAlloc:
		n := it.eval(fr, in.A)
		if n < 0 || n >= OffSpan {
			return false, it.trap(th, in, "bad allocation size %d", n)
		}
		obj := len(it.objects)
		it.objects = append(it.objects, make([]int64, n))
		fr.regs[in.Dst.ID] = MakeAddr(obj, 0)
		fr.idx++
	case ir.OpLoad:
		a := it.eval(fr, in.A)
		if nullFlagged(it.cfg.Masks, in.ID) {
			it.stats.NullChecks++
			if a == 0 {
				// Recovered nil deref: the load yields 0 and no memory is
				// touched. Recovery is tracer-independent so traced and
				// untraced runs stay bit-identical.
				fr.regs[in.Dst.ID] = 0
				if tr != nil {
					tr.NilDeref(th.id, in)
				}
				fr.idx++
				break
			}
		}
		cell, err := it.mem(th, in, a)
		if err != nil {
			return false, err
		}
		v := *cell
		fr.regs[in.Dst.ID] = v
		accessAddr = a
		if tr != nil && masked(it.cfg.Masks.Mem, in.ID) {
			it.stats.Loads++
			tr.Load(th.id, in, a, v)
		}
		fr.idx++
	case ir.OpStore:
		a := it.eval(fr, in.A)
		if nullFlagged(it.cfg.Masks, in.ID) {
			it.stats.NullChecks++
			if a == 0 {
				// Recovered nil deref: the store is dropped.
				if tr != nil {
					tr.NilDeref(th.id, in)
				}
				fr.idx++
				break
			}
		}
		cell, err := it.mem(th, in, a)
		if err != nil {
			return false, err
		}
		v := it.eval(fr, in.B)
		*cell = v
		accessAddr = a
		if tr != nil && masked(it.cfg.Masks.Mem, in.ID) {
			it.stats.Stores++
			tr.Store(th.id, in, a, v)
		}
		fr.idx++
	case ir.OpLock:
		a := it.eval(fr, in.A)
		if !IsPtr(a) {
			return false, it.trap(th, in, "lock of non-pointer value %s", FormatValue(a))
		}
		ls := it.locks[a]
		if ls == nil {
			ls = &lockState{holder: -1}
			it.locks[a] = ls
		}
		switch ls.holder {
		case -1:
			ls.holder = th.id
			th.state = tRunning
			accessAddr = a
			if tr != nil && masked(it.cfg.Masks.Sync, in.ID) {
				it.stats.Locks++
				tr.Lock(th.id, in, a)
			}
			fr.idx++
			yield = true
		case th.id:
			return false, it.trap(th, in, "recursive lock of %s", FormatValue(a))
		default:
			th.state = tBlockedLock
			th.waitAddr = a
			it.stats.Steps-- // retried; don't double-count
			return true, nil
		}
	case ir.OpUnlock:
		a := it.eval(fr, in.A)
		if !IsPtr(a) {
			return false, it.trap(th, in, "unlock of non-pointer value %s", FormatValue(a))
		}
		ls := it.locks[a]
		if ls == nil || ls.holder != th.id {
			return false, it.trap(th, in, "unlock of mutex not held: %s", FormatValue(a))
		}
		accessAddr = a
		if tr != nil && masked(it.cfg.Masks.Sync, in.ID) {
			it.stats.Unlocks++
			tr.Unlock(th.id, in, a)
		}
		ls.holder = -1
		fr.idx++
		yield = true
	case ir.OpCall:
		callee, err := it.resolveCallee(th, fr, in)
		if err != nil {
			return false, err
		}
		args := make([]int64, len(in.Args))
		for i, op := range in.Args {
			args[i] = it.eval(fr, op)
		}
		fr.idx++ // return to the next instruction
		nf := it.newFrame(callee, args, in.Dst)
		th.frames = append(th.frames, nf)
		if tr != nil {
			it.stats.CallEvents++
			tr.Call(th.id, in, callee, fr.id, nf.id)
		}
		it.enterBlock(th, callee.Entry)
	case ir.OpSpawn:
		callee, err := it.resolveCallee(th, fr, in)
		if err != nil {
			return false, err
		}
		args := make([]int64, len(in.Args))
		for i, op := range in.Args {
			args[i] = it.eval(fr, op)
		}
		child := it.spawnThread(callee, args)
		if in.Dst != nil {
			fr.regs[in.Dst.ID] = int64(child.id)
		}
		if tr != nil {
			it.stats.Spawns++
			tr.Spawn(th.id, in, child.id, child.frames[0].id, callee)
		}
		fr.idx++
		it.enterBlock(child, callee.Entry)
		yield = true
	case ir.OpJoin:
		v := it.eval(fr, in.A)
		if v < 0 || v >= int64(len(it.threads)) || vc.TID(v) == th.id {
			return false, it.trap(th, in, "join of invalid thread %s", FormatValue(v))
		}
		target := it.threads[v]
		if target.state != tDone {
			th.state = tBlockedJoin
			th.waitTID = target.id
			it.stats.Steps--
			return true, nil
		}
		th.state = tRunning
		if tr != nil {
			it.stats.Joins++
			tr.Join(th.id, in, target.id)
		}
		fr.idx++
		yield = true
	case ir.OpRet:
		v := it.eval(fr, in.A)
		th.frames = th.frames[:len(th.frames)-1]
		if len(th.frames) == 0 {
			th.state = tDone
			yield = true
			if tr != nil {
				tr.Ret(th.id, in, fr.id, 0, nil)
			}
		} else {
			caller := th.frames[len(th.frames)-1]
			if fr.retDst != nil {
				caller.regs[fr.retDst.ID] = v
			}
			if tr != nil {
				tr.Ret(th.id, in, fr.id, caller.id, fr.retDst)
			}
		}
	case ir.OpJmp:
		it.enterBlock(th, fr.block.Succs[0])
	case ir.OpBr:
		if it.eval(fr, in.A) != 0 {
			it.enterBlock(th, fr.block.Succs[0])
		} else {
			it.enterBlock(th, fr.block.Succs[1])
		}
	case ir.OpPrint:
		it.output = append(it.output, it.eval(fr, in.A))
		fr.idx++
	case ir.OpInput:
		idx := it.eval(fr, in.A)
		var v int64
		if idx >= 0 && idx < int64(len(it.cfg.Inputs)) {
			v = it.cfg.Inputs[idx]
		}
		fr.regs[in.Dst.ID] = v
		fr.idx++
	case ir.OpNInputs:
		fr.regs[in.Dst.ID] = int64(len(it.cfg.Inputs))
		fr.idx++
	default:
		return false, it.trap(th, in, "unknown opcode %s", in.Op)
	}

	if tr != nil && execFlagged(it.cfg.Masks, in.ID) {
		it.stats.ExecEvents++
		tr.Exec(th.id, in, fr.id, accessAddr)
	}
	return yield, nil
}
