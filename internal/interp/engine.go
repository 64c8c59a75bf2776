// Compiled execution engine: runs the flat bytecode produced by
// Compile. Semantics are bit-identical to the tree-walking reference
// interpreter (interp.go) — same outputs, event streams, Stats,
// scheduling decisions, and trap messages — which the differential
// tests in enginediff_test.go enforce over random programs.
//
// Beyond the bytecode itself, the engine removes the tree-walker's
// per-step allocation hot spots:
//
//   - frames and their register slabs are pooled, so call-heavy code
//     stops allocating per activation;
//   - the lock table is a per-object slice mirroring the heap layout
//     (with a rare overflow map for fabricated out-of-range pointers)
//     instead of map[Addr]*lockState;
//   - the ready set (the sorted ids of the threads that can run) is
//     kept current at the events that change it — a thread spawns,
//     exits or blocks, or a lock word a blocked thread waits on is
//     taken or freed — so a scheduling decision reads it with no
//     scan, allocation, or sort.
package interp

import (
	"errors"
	"fmt"

	"oha/internal/ir"
	"oha/internal/sched"
	"oha/internal/vc"
)

// cframe is one pooled activation record.
type cframe struct {
	id     FrameID
	fn     *cfunc
	regs   []int64
	pc     int32
	retReg int32   // caller register receiving the return value (regNone: none)
	retVar *ir.Var // same register as an *ir.Var, for the Ret event payload
}

// cthread mirrors the tree-walker's thread state.
type cthread struct {
	id       vc.TID
	frames   []*cframe
	state    tstate
	waitAddr Addr   // valid when tBlockedLock
	waitTID  vc.TID // valid when tBlockedJoin
}

// engine executes one compiled program.
type engine struct {
	cfg     Config
	code    *Code
	objects [][]int64 // heap: objects[0] is the globals object
	lockTab [][]int32 // per-object lock words: 0 free, tid+1 held; nil until first lock
	lockOv  map[Addr]int32
	threads []*cthread
	output  []int64
	stats   Stats
	nextFID FrameID
	chooser sched.Chooser
	ctxDone <-chan struct{}

	// ready holds, ascending, the ids of the threads that can make
	// progress now: every tRunning thread, plus every blocked thread
	// whose wait condition holds (its lock word is free, its join
	// target is done). blocked holds the blocked threads, ascending by
	// id; they are the only threads whose readiness an event can flip.
	ready   []vc.TID
	blocked []*cthread

	framePool []*cframe

	icDead []bool // per-run IC kill switches, indexed by cinstr.icIdx
	ic     ICStats

	// Inline tracer fast path (fastpath.go), armed by newEngine when
	// the tracer implements FastTracer and the image allows it. The
	// slice pointers are double-indirect: the client grows or swaps the
	// backing arrays at slow-path boundaries and the engine re-derefs
	// per event.
	fpKind   FastKind
	fpEpochs *[]vc.Epoch
	fpRead   *[][]vc.Epoch
	fpWrite  *[][]vc.Epoch
	fpRIn    *[][]*ir.Instr
	fpWIn    *[][]*ir.Instr
	fpChecks *uint64
	fpBlocks []bool // block-coverage row replacing BlockEnter (nil: call)
}

// newEngine builds an engine for cfg with defaults applied: the
// shared construction path of runCompiled and the step debugger
// (debug.go).
func newEngine(cfg Config) (*engine, error) {
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
	code := cfg.Code
	if code == nil {
		code = Compile(cfg.Prog, cfg.Masks)
	} else if code.prog != cfg.Prog {
		return nil, errors.New("interp: Config.Code was compiled from a different program")
	}
	e := &engine{cfg: cfg, code: code, chooser: ch}
	if code.numICs > 0 {
		e.icDead = make([]bool, code.numICs)
	}
	if cfg.Tracer != nil && !code.noFast {
		if ft, ok := cfg.Tracer.(FastTracer); ok {
			if fs := ft.FastState(); fs != nil {
				if len(fs.Blocks) == len(code.prog.Blocks) {
					e.fpBlocks = fs.Blocks
				}
				switch fs.Kind {
				case FastEpoch:
					if fs.Epochs != nil && fs.Read != nil && fs.Write != nil &&
						fs.ReadInstr != nil && fs.WriteInstr != nil && fs.Checks != nil {
						e.fpKind = FastEpoch
						e.fpEpochs = fs.Epochs
						e.fpRead = fs.Read
						e.fpWrite = fs.Write
						e.fpRIn = fs.ReadInstr
						e.fpWIn = fs.WriteInstr
						e.fpChecks = fs.Checks
					}
				case FastNull:
					e.fpKind = FastNull
					e.fpChecks = fs.Checks
				case FastSlice:
					e.fpKind = FastSlice
				}
			}
		}
	}
	if cfg.Ctx != nil {
		e.ctxDone = cfg.Ctx.Done()
	}
	globals := make([]int64, len(code.prog.Globals))
	for i, g := range code.prog.Globals {
		globals[i] = g.Init
	}
	e.objects = append(e.objects, globals)
	e.lockTab = append(e.lockTab, nil)
	return e, nil
}

// runCompiled executes cfg under the compiled engine.
func runCompiled(cfg Config) (*Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return &Result{}, err
	}
	err = e.run()
	return &Result{Output: e.output, Stats: e.stats, Threads: len(e.threads), IC: e.ic}, err
}

func (e *engine) trap(t *cthread, in *ir.Instr, format string, args ...any) error {
	return &RuntimeError{TID: t.id, Instr: in, Msg: fmt.Sprintf(format, args...)}
}

// newFrame takes an activation record from the pool (or allocates one)
// and prepares it for fn. Recycled register slabs are re-sliced and
// zeroed in place, so steady-state calls allocate nothing. The slab
// extends past nregs with the function's fused-run constant pool,
// refreshed on every activation (recycled slabs may carry another
// function's constants); fused micro-ops read operands from it by
// plain index, and nothing ever writes past nregs. Slabs are at least
// microSlots long so the run handler can index a *[microSlots]int64
// view with no bounds checks; only the live prefix is ever zeroed, so
// the padding costs one allocation, not per-call work.
func (e *engine) newFrame(fn *cfunc, retReg int32, retVar *ir.Var) *cframe {
	e.nextFID++
	var fr *cframe
	if n := len(e.framePool); n > 0 {
		fr = e.framePool[n-1]
		e.framePool = e.framePool[:n-1]
	} else {
		fr = &cframe{}
	}
	slots := fn.nregs + len(fn.consts)
	if slots < microSlots {
		slots = microSlots
	}
	if cap(fr.regs) >= slots {
		fr.regs = fr.regs[:slots]
		for i := 0; i < fn.nregs; i++ {
			fr.regs[i] = 0
		}
	} else {
		fr.regs = make([]int64, slots)
	}
	copy(fr.regs[fn.nregs:], fn.consts)
	fr.id = e.nextFID
	fr.fn = fn
	fr.pc = fn.entry
	fr.retReg = retReg
	fr.retVar = retVar
	return fr
}

func (e *engine) freeFrame(fr *cframe) {
	fr.fn = nil
	fr.retVar = nil
	e.framePool = append(e.framePool, fr)
}

func (e *engine) spawnThread(fn *cfunc) *cthread {
	th := &cthread{id: vc.TID(len(e.threads))}
	th.frames = append(th.frames, e.newFrame(fn, regNone, nil))
	e.threads = append(e.threads, th)
	e.ready = append(e.ready, th.id) // new ids are maximal: stays sorted
	return th
}

// removeReady deletes id from the ready set.
func (e *engine) removeReady(id vc.TID) {
	for i, t := range e.ready {
		if t == id {
			e.ready = append(e.ready[:i], e.ready[i+1:]...)
			return
		}
	}
}

// insertReady adds id to the ready set.
func (e *engine) insertReady(id vc.TID) {
	i := len(e.ready)
	for i > 0 && e.ready[i-1] > id {
		i--
	}
	e.ready = append(e.ready, 0)
	copy(e.ready[i+1:], e.ready[i:])
	e.ready[i] = id
}

// block parks the running thread th in state st. Its wait condition
// is false when it blocks, so it leaves the ready set.
func (e *engine) block(th *cthread, st tstate) {
	th.state = st
	i := len(e.blocked)
	for i > 0 && e.blocked[i-1].id > th.id {
		i--
	}
	e.blocked = append(e.blocked, nil)
	copy(e.blocked[i+1:], e.blocked[i:])
	e.blocked[i] = th
	e.removeReady(th.id)
}

// unblock resumes the blocked thread th. It was ready, or it could not
// have been scheduled, and it stays ready.
func (e *engine) unblock(th *cthread) {
	th.state = tRunning
	for i, b := range e.blocked {
		if b == th {
			e.blocked = append(e.blocked[:i], e.blocked[i+1:]...)
			return
		}
	}
}

// exit finishes th; the threads joining it become ready.
func (e *engine) exit(th *cthread) {
	th.state = tDone
	e.removeReady(th.id)
	for _, b := range e.blocked {
		if b.state == tBlockedJoin && b.waitTID == th.id {
			e.insertReady(b.id)
		}
	}
}

// lockChanged updates the ready set after the lock word at a was taken
// (free false) or freed: the threads blocked on a stop or start being
// ready. A word no blocked thread waits on changes nothing.
func (e *engine) lockChanged(a Addr, free bool) {
	for _, b := range e.blocked {
		if b.state == tBlockedLock && b.waitAddr == a {
			if free {
				e.insertReady(b.id)
			} else {
				e.removeReady(b.id)
			}
		}
	}
}

// lockGet returns the lock word for addr: 0 free, holder tid+1 held.
// Addresses inside an allocated object use the per-object table; an
// address that was first locked outside any object (fabricated pointer
// arithmetic) is pinned to the overflow map so its routing never
// changes as the heap grows.
func (e *engine) lockGet(a Addr) int32 {
	if e.lockOv != nil {
		if v, ok := e.lockOv[a]; ok {
			return v
		}
	}
	obj, off := DecodeAddr(a)
	if obj < len(e.objects) && off < int64(len(e.objects[obj])) {
		if t := e.lockTab[obj]; t != nil {
			return t[off]
		}
	}
	return 0
}

// lockSet stores the lock word for addr (see lockGet for routing)
// and keeps the ready set current for the threads waiting on it. Every
// call flips the word between free and held.
func (e *engine) lockSet(a Addr, v int32) {
	if len(e.blocked) > 0 {
		e.lockChanged(a, v == 0)
	}
	if e.lockOv != nil {
		if _, ok := e.lockOv[a]; ok {
			e.lockOv[a] = v
			return
		}
	}
	obj, off := DecodeAddr(a)
	if obj < len(e.objects) && off < int64(len(e.objects[obj])) {
		t := e.lockTab[obj]
		if t == nil {
			t = make([]int32, len(e.objects[obj]))
			e.lockTab[obj] = t
		}
		t[off] = v
		return
	}
	if e.lockOv == nil {
		e.lockOv = map[Addr]int32{}
	}
	e.lockOv[a] = v
}

func (e *engine) mem(th *cthread, in *ir.Instr, a int64) (*int64, error) {
	if !IsPtr(a) {
		return nil, e.trap(th, in, "memory access through non-pointer value %s", FormatValue(a))
	}
	obj, off := DecodeAddr(a)
	if obj >= len(e.objects) || e.objects[obj] == nil {
		return nil, e.trap(th, in, "access to unallocated object %d", obj)
	}
	cells := e.objects[obj]
	if off < 0 || off >= int64(len(cells)) {
		return nil, e.trap(th, in, "out-of-bounds access: offset %d of object %d (size %d)", off, obj, len(cells))
	}
	return &cells[off], nil
}

// opval resolves a pre-lowered operand against the frame's registers.
func opval(regs []int64, o coperand) int64 {
	if o.reg >= 0 {
		return regs[o.reg]
	}
	return o.imm
}

// resolveCallee mirrors the tree-walker's callee resolution, with a
// speculative inline-cache fast path in front: a hit dispatches on one
// int64 compare per entry, skipping value decoding, the function-table
// load, and the arity check (entries are arity-validated at compile
// time). The first miss deoptimizes the site for the rest of the run;
// resolution then proceeds generically, which preserves traps exactly
// — and the callee-set *invariant* check stays where it always was, in
// the tracer, so an out-of-set target still raises the structured
// violation that drives adaptive refinement.
func (e *engine) resolveCallee(th *cthread, fr *cframe, in *cinstr) (*cfunc, error) {
	if in.fn != nil {
		return in.fn, nil
	}
	if in.ic != nil {
		if !e.icDead[in.icIdx] {
			v := opval(fr.regs, in.a)
			for i := range in.ic {
				if in.ic[i].val == v {
					e.ic.Hits++
					return in.ic[i].fn, nil
				}
			}
			e.icDead[in.icIdx] = true
			e.ic.Deopts++
		} else {
			e.ic.Misses++
		}
	}
	v := opval(fr.regs, in.a)
	if !IsFunc(v) {
		return nil, e.trap(th, in.in, "indirect call through non-function value %s", FormatValue(v))
	}
	f := e.code.funcs[DecodeFunc(v)]
	if len(in.args) != len(f.params) {
		return nil, e.trap(th, in.in, "indirect call to %s with %d args, want %d", f.fn.Name, len(in.args), len(f.params))
	}
	return f, nil
}

// blockEnter delivers the entry of flagged block b to thread t: a
// store into the client's coverage row when one is armed, otherwise a
// BlockEnter call. Either way the event counts in Stats.BlockEvents.
func (e *engine) blockEnter(tr Tracer, t vc.TID, b *ir.Block) {
	e.stats.BlockEvents++
	if e.fpBlocks != nil {
		e.fpBlocks[b.ID] = true
		return
	}
	tr.BlockEnter(t, b)
}

// fpReadHit settles the same-epoch read check inline: true when the
// address's read slot already holds t's current epoch, which is
// exactly the detector's SAME EPOCH early return (no state changes;
// the call site counts the check). Kept small enough for the
// compiler to inline into the dispatch-loop arms; every other shape
// goes through traceLoad.
// rel is the caller-computed a - PtrBase (hoisting it keeps the
// helper inside the inlining budget).
func (e *engine) fpReadHit(t vc.TID, rel int64) bool {
	eps := *e.fpEpochs
	rd := *e.fpRead
	obj := rel / OffSpan
	if uint64(t) >= uint64(len(eps)) || uint64(obj) >= uint64(len(rd)) {
		return false
	}
	ep := eps[t]
	row := rd[obj]
	off := rel % OffSpan
	return ep != 0 && uint64(off) < uint64(len(row)) && row[off] == ep
}

// fpWriteHit is fpReadHit's store analog (same-epoch write slot).
func (e *engine) fpWriteHit(t vc.TID, rel int64) bool {
	eps := *e.fpEpochs
	wr := *e.fpWrite
	obj := rel / OffSpan
	if uint64(t) >= uint64(len(eps)) || uint64(obj) >= uint64(len(wr)) {
		return false
	}
	ep := eps[t]
	row := wr[obj]
	off := rel % OffSpan
	return ep != 0 && uint64(off) < uint64(len(row)) && row[off] == ep
}

// traceLoad delivers one instrumented load event through the armed
// fast path. FastEpoch has two hit shapes, each provably equivalent
// to the full Load rules: a read slot already holding the thread's
// current epoch is exactly the detector's same-epoch early return
// (one compare, no state change), and a thread-exclusive slot pair —
// read and write slots both owned by t or empty; ReadShared's
// all-ones TID never equals a real thread id — makes every
// happens-before comparison a same-thread clock check that trivially
// passes, so the EXCLUSIVE update applies verbatim as one epoch store
// plus one attribution store. FastNull: a non-nil value is only ever
// counted, never checked, so the interface call is skipped.
// Everything else falls back to the full Tracer method.
func (e *engine) traceLoad(t vc.TID, in *ir.Instr, a Addr, v int64) {
	switch e.fpKind {
	case FastEpoch:
		if eps := *e.fpEpochs; uint64(t) < uint64(len(eps)) {
			if ep := eps[t]; ep != 0 {
				rd := *e.fpRead
				rel := a - PtrBase
				obj, off := rel/OffSpan, rel%OffSpan
				if uint64(obj) < uint64(len(rd)) {
					if row := rd[obj]; uint64(off) < uint64(len(row)) {
						r := row[off]
						if r == ep { // SAME EPOCH
							*e.fpChecks++
							e.ic.FastPath.Hits++
							return
						}
						if r == 0 || r.TID() == t { // EXCLUSIVE transition
							if wr := *e.fpWrite; uint64(obj) < uint64(len(wr)) {
								if wrow := wr[obj]; uint64(off) < uint64(len(wrow)) {
									if w := wrow[off]; w == 0 || w.TID() == t {
										if ri := *e.fpRIn; uint64(obj) < uint64(len(ri)) {
											if irow := ri[obj]; uint64(off) < uint64(len(irow)) {
												row[off] = ep
												irow[off] = in
												*e.fpChecks++
												e.ic.FastPath.Hits++
												return
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
		e.ic.FastPath.Slow++
		e.cfg.Tracer.Load(t, in, a, v)
	case FastNull:
		if v != 0 {
			// The full handler would only bump its event counter: a
			// non-nil load never consults facts or records anything.
			if e.fpChecks != nil {
				*e.fpChecks++
			}
			e.ic.FastPath.Hits++
			return
		}
		e.ic.FastPath.Slow++
		e.cfg.Tracer.Load(t, in, a, v)
	default:
		e.cfg.Tracer.Load(t, in, a, v)
	}
}

// traceStore is traceLoad's store analog. Only FastEpoch has a store
// fast path: the same-epoch write check precedes all read-state
// checks in the detector, so that skip is exact, and a
// thread-exclusive slot pair reduces the write rules to storing the
// epoch and the attribution instr (a ReadShared read slot never
// matches a real TID, so shared collapses always go slow); other
// kinds call through.
func (e *engine) traceStore(t vc.TID, in *ir.Instr, a Addr, v int64) {
	if e.fpKind == FastEpoch {
		if eps := *e.fpEpochs; uint64(t) < uint64(len(eps)) {
			if ep := eps[t]; ep != 0 {
				wr := *e.fpWrite
				rel := a - PtrBase
				obj, off := rel/OffSpan, rel%OffSpan
				if uint64(obj) < uint64(len(wr)) {
					if row := wr[obj]; uint64(off) < uint64(len(row)) {
						w := row[off]
						if w == ep { // SAME EPOCH
							*e.fpChecks++
							e.ic.FastPath.Hits++
							return
						}
						if w == 0 || w.TID() == t { // exclusive write transition
							if rd := *e.fpRead; uint64(obj) < uint64(len(rd)) {
								if rrow := rd[obj]; uint64(off) < uint64(len(rrow)) {
									if r := rrow[off]; r == 0 || r.TID() == t {
										if wi := *e.fpWIn; uint64(obj) < uint64(len(wi)) {
											if irow := wi[obj]; uint64(off) < uint64(len(irow)) {
												row[off] = ep
												irow[off] = in
												*e.fpChecks++
												e.ic.FastPath.Hits++
												return
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
		e.ic.FastPath.Slow++
	}
	e.cfg.Tracer.Store(t, in, a, v)
}

// skipExec reports whether a FastSlice client unconditionally ignores
// Exec events for this opcode (the slicer early-returns on jumps,
// branches, lock/unlock, and join before touching any state), so the
// engine can skip the delivery.
func skipExec(op copcode) bool {
	switch op {
	case cJmp, cBr, cLock, cUnlock, cJoin:
		return true
	}
	return false
}

// start spawns the main thread and delivers its entry BlockEnter —
// the common prologue of run and the step debugger.
func (e *engine) start() error {
	if e.code.main == nil {
		return errors.New("interp: program has no main")
	}
	mainTh := e.spawnThread(e.code.main)
	if tr := e.cfg.Tracer; tr != nil && e.code.main.entryEv {
		e.enterMain(tr, mainTh.id)
	}
	return nil
}

// pickRunnable chooses the next scheduled thread. ok is false when
// every thread has finished; a non-empty thread set with nothing
// runnable is a deadlock.
func (e *engine) pickRunnable() (vc.TID, bool, error) {
	switch run := e.ready; len(run) {
	case 0:
		// Nothing is ready, so every live thread is blocked; the
		// lowest-numbered one is the tree-walker's first waiting thread.
		if len(e.blocked) > 0 {
			return 0, false, fmt.Errorf("%w: thread %d waiting", ErrDeadlock, e.blocked[0].id)
		}
		return 0, false, nil // all threads finished
	case 1:
		return run[0], true, nil
	default:
		return e.chooser.Choose(run), true, nil
	}
}

func (e *engine) run() error {
	if err := e.start(); err != nil {
		return err
	}
	for {
		pick, ok, err := e.pickRunnable()
		if err != nil || !ok {
			return err
		}
		if err := e.runSlice(e.threads[pick]); err != nil {
			return err
		}
	}
}

// runSlice executes up to one quantum of th. Control flow mirrors the
// tree-walker exactly: step-limit check before each instruction, abort
// poll after each, context poll once per slice, and blocked sync
// operations retried without consuming a step. The loop itself only
// runs fused runs, calls and returns (a call or return outside any run
// is a run of just its terminator, see cinstr.nrun), which together
// are nearly every dispatch; every other opcode is one call to the
// outlined step.
func (e *engine) runSlice(th *cthread) error {
	if e.ctxDone != nil {
		select {
		case <-e.ctxDone:
			return fmt.Errorf("%w: %v", ErrCanceled, e.cfg.Ctx.Err())
		default:
		}
	}
	tr := e.cfg.Tracer
	code := e.code.code
	fr := th.frames[len(th.frames)-1]
	for q := 0; q < e.cfg.Quantum; q++ {
		if e.stats.Steps >= e.cfg.MaxSteps {
			return fmt.Errorf("%w (%d)", ErrStepLimit, e.cfg.MaxSteps)
		}
		in := &code[fr.pc]
		e.stats.Steps++
		if in.nrun == 0 {
			next, err := e.step(th, fr, in)
			if next == nil {
				return err
			}
			fr = next
			continue
		}

		// A fused straight-line run, or a lone call or return. One
		// budget check bounds how many components this dispatch
		// retires: k = min(run length, remaining quantum, remaining
		// step allowance). The admitted prefix executes in a compact
		// local switch — no per-component flag checks, yield tests, or
		// frame bookkeeping. Interior components deliver only their own
		// Mem and Exec events; only a delivery that left the inline
		// fast path can have raised the abort flag, so the run polls it
		// there and, when set, cuts itself right after that component
		// (k = j+1). The single post-run abort poll then stops exactly
		// where the unfused poll-after-each would. A run that no longer
		// fits the budget splits at the boundary instead of de-fusing
		// wholesale: the first k components retire here, the slice ends
		// exactly where unfused execution would have yielded, and the
		// next slice resumes at base+k — a suffix head covering the
		// rest of the run — so quantum and step-limit timing is
		// bit-identical to unfused execution. A pair retires both its
		// components in one iteration only when both are admitted
		// (j+1 < m). The terminator (a branch, jump, call, or return)
		// only executes when the whole run was admitted.
		n := in.nrun
		k := n
		if rem := int32(e.cfg.Quantum - q); rem < k {
			k = rem
		}
		if rem := e.cfg.MaxSteps - e.stats.Steps; rem+1 < uint64(k) {
			k = int32(rem) + 1
		}
		nextFr := fr
		var dead *cframe
		base := fr.pc
		fr.pc = base + k // a branch/jump terminator overwrites
		// Every frame slab is ≥ microSlots long (newFrame), so the
		// fixed-size array view makes uint8-indexed operand fetch
		// bounds-check-free.
		regs := (*[microSlots]int64)(fr.regs)
		m := int(k)
		if m > len(in.run) {
			m = len(in.run) // terminator at base+n-1
		}
	run:
		for j := 0; j < m; j++ {
			u := &in.run[j]
			av, bv := regs[u.a], regs[u.b]
			switch u.op {
			case uint8(ir.BinAdd):
				regs[u.dst] = av + bv
			case uint8(ir.BinSub):
				regs[u.dst] = av - bv
			case uint8(ir.BinMul):
				regs[u.dst] = av * bv
			case uint8(ir.BinDiv):
				if bv == 0 {
					regs[u.dst] = 0
				} else {
					regs[u.dst] = av / bv
				}
			case uint8(ir.BinMod):
				if bv == 0 {
					regs[u.dst] = 0
				} else {
					regs[u.dst] = av % bv
				}
			case uint8(ir.BinLt):
				regs[u.dst] = b2i(av < bv)
			case uint8(ir.BinLe):
				regs[u.dst] = b2i(av <= bv)
			case uint8(ir.BinGt):
				regs[u.dst] = b2i(av > bv)
			case uint8(ir.BinGe):
				regs[u.dst] = b2i(av >= bv)
			case uint8(ir.BinEq):
				regs[u.dst] = b2i(av == bv)
			case uint8(ir.BinNe):
				regs[u.dst] = b2i(av != bv)
			case uint8(ir.BinAnd):
				regs[u.dst] = av & bv
			case uint8(ir.BinOr):
				regs[u.dst] = av | bv
			case uint8(ir.BinXor):
				regs[u.dst] = av ^ bv
			case uint8(ir.BinShl):
				regs[u.dst] = av << (uint64(bv) & 63)
			case uint8(ir.BinShr):
				regs[u.dst] = av >> (uint64(bv) & 63)
			case mAddCopy:
				// A pair (pairMicros): the second half runs only when the
				// budget admits it; otherwise the next slice resumes at
				// the copy's own micro op.
				v := av + bv
				regs[u.dst] = v
				if j+1 < m {
					regs[u.x] = v
					j++
				}
			case mSubCopy:
				v := av - bv
				regs[u.dst] = v
				if j+1 < m {
					regs[u.x] = v
					j++
				}
			case mInput:
				regs[u.dst] = e.input(av)
			case mCopy:
				regs[u.dst] = av
			case mNeg:
				regs[u.dst] = -av
			case mNot:
				regs[u.dst] = b2i(av == 0)
			case mAddLoad:
				// A pair: the add, then, budget permitting, the load
				// through its sum, executed by the load's own micro op
				// (its event, trap and abort cut included).
				av += bv // the load's address operand is the sum
				regs[u.dst] = av
				if j+1 == m {
					continue
				}
				j++
				u = &in.run[j]
				fallthrough
			case mLoad, mLoadEv:
				// Inlined e.mem hit path; a miss is exactly one of
				// its trap conditions, so the slow path only traps.
				if obj, off := DecodeAddr(av); IsPtr(av) && obj < len(e.objects) {
					if cells := e.objects[obj]; uint64(off) < uint64(len(cells)) {
						v := cells[off]
						regs[u.dst] = v
						if u.op == mLoad || tr == nil {
							continue
						}
						e.stats.Loads++
						// Inlined same-epoch fast path, as in cLoad.
						if e.fpKind == FastEpoch && e.fpReadHit(th.id, av-PtrBase) {
							*e.fpChecks++
							e.ic.FastPath.Hits++
							continue
						}
						e.traceLoad(th.id, u.in, av, v)
						if e.cfg.Abort != nil && e.cfg.Abort.IsSet() {
							k = int32(j) + 1
							fr.pc = base + k
							break run
						}
						continue
					}
				}
				_, err := e.mem(th, u.in, av)
				e.stats.Steps += uint64(j)
				return err
			case mAddStore:
				av += bv
				regs[u.dst] = av
				if j+1 == m {
					continue
				}
				j++
				u = &in.run[j]
				bv = regs[u.b] // read after the sum's write: it may be the sum
				fallthrough
			case mStore, mStoreEv:
				if obj, off := DecodeAddr(av); IsPtr(av) && obj < len(e.objects) {
					if cells := e.objects[obj]; uint64(off) < uint64(len(cells)) {
						cells[off] = bv
						if u.op == mStore || tr == nil {
							continue
						}
						e.stats.Stores++
						if e.fpKind == FastEpoch && e.fpWriteHit(th.id, av-PtrBase) {
							*e.fpChecks++
							e.ic.FastPath.Hits++
							continue
						}
						e.traceStore(th.id, u.in, av, bv)
						if e.cfg.Abort != nil && e.cfg.Abort.IsSet() {
							k = int32(j) + 1
							fr.pc = base + k
							break run
						}
						continue
					}
				}
				_, err := e.mem(th, u.in, av)
				e.stats.Steps += uint64(j)
				return err
			default: // mExec set: an Exec-carrying component
				// It executes as its unfused step would: the component
				// with its Mem event, then Exec with the accessed
				// address (0 for register ops), then the abort poll.
				var a Addr
				if op := u.op &^ mExec; op < mCopy {
					regs[u.dst] = evalBin(ir.BinOp(op), av, bv)
				} else {
					var err error
					if a, err = e.execMicro(th, regs, u); err != nil {
						e.stats.Steps += uint64(j)
						return err
					}
				}
				if tr != nil {
					e.stats.ExecEvents++
					if e.fpKind == FastSlice {
						e.ic.FastPath.Slow++
					}
					tr.Exec(th.id, u.in, fr.id, a)
				}
				if e.cfg.Abort != nil && e.cfg.Abort.IsSet() {
					k = int32(j) + 1
					fr.pc = base + k
					break run
				}
			}
		}
		if k == n && int32(len(in.run)) < n {
			if in.t0 >= 0 {
				// Pre-decoded branch/jump terminator (predecodeTerm).
				t, b := in.t0, in.b0
				if in.t1 >= 0 && regs[in.cond] == 0 {
					t, b = in.t1, in.b1
				}
				fr.pc = t
				if b != nil && tr != nil {
					e.blockEnter(tr, th.id, b)
				}
			} else if ci := &code[base+n-1]; ci.op == cCall {
				// Inlined monomorphic inline-cache hit; any other shape
				// (later entry, dead site, miss) resolves generically
				// with identical accounting.
				var callee *cfunc
				if ic := ci.ic; ic != nil && !e.icDead[ci.icIdx] && ic[0].val == opval(fr.regs, ci.a) {
					e.ic.Hits++
					callee = ic[0].fn
				} else {
					var err error
					callee, err = e.resolveCallee(th, fr, ci)
					if err != nil {
						e.stats.Steps += uint64(n) - 1
						return err
					}
				}
				// fr.pc already points past the run, which is the
				// call's return target.
				nf := e.newFrame(callee, ci.dst, ci.in.Dst)
				for i, p := range callee.params {
					nf.regs[p] = opval(fr.regs, ci.args[i])
				}
				th.frames = append(th.frames, nf)
				if tr != nil {
					e.stats.CallEvents++
					tr.Call(th.id, ci.in, callee.fn, fr.id, nf.id)
				}
				if callee.entryEv && tr != nil {
					e.blockEnter(tr, th.id, callee.entryB)
				}
				if ci.flags&fExecEv != 0 && tr != nil { // only a lone call
					e.execEvent(th.id, ci.in, fr.id, 0)
				}
				nextFr = nf
			} else { // cRet
				v := opval(fr.regs, ci.a)
				th.frames = th.frames[:len(th.frames)-1]
				if len(th.frames) == 0 {
					e.exit(th)
					if tr != nil {
						tr.Ret(th.id, ci.in, fr.id, 0, nil)
					}
				} else {
					caller := th.frames[len(th.frames)-1]
					if fr.retReg >= 0 {
						caller.regs[fr.retReg] = v
					}
					if tr != nil {
						tr.Ret(th.id, ci.in, fr.id, caller.id, fr.retVar)
					}
					nextFr = caller
				}
				if ci.flags&fExecEv != 0 && tr != nil { // only a lone return
					e.execEvent(th.id, ci.in, fr.id, 0)
				}
				dead = fr
			}
		}
		e.stats.Steps += uint64(k) - 1
		q += int(k) - 1
		e.ic.Fused += uint64(k) - 1
		if dead != nil {
			e.freeFrame(dead)
		}
		if e.cfg.Abort != nil && e.cfg.Abort.IsSet() {
			return e.aborted()
		}
		if th.state != tRunning {
			return nil // the run's return ended the thread
		}
		fr = nextFr
	}
	return nil
}

// input returns input i of the run, 0 past either end.
func (e *engine) input(i int64) int64 {
	if uint64(i) < uint64(len(e.cfg.Inputs)) {
		return e.cfg.Inputs[i]
	}
	return 0
}

// aborted is the error a run stopped by the abort flag returns.
func (e *engine) aborted() error {
	return fmt.Errorf("%w: %s", ErrAborted, e.cfg.Abort.Reason())
}

// execMicro executes an Exec-carrying fused component u other than a
// binary operator exactly as step executes the unfused instruction,
// its Mem event included, and returns the address its Exec event
// reports (0 for register ops).
func (e *engine) execMicro(th *cthread, regs *[microSlots]int64, u *microp) (Addr, error) {
	tr := e.cfg.Tracer
	av, bv := regs[u.a], regs[u.b]
	switch op := u.op &^ mExec; op {
	case mCopy:
		regs[u.dst] = av
	case mNeg:
		regs[u.dst] = -av
	case mNot:
		regs[u.dst] = b2i(av == 0)
	case mInput:
		regs[u.dst] = e.input(av)
	case mLoad, mLoadEv:
		cell, err := e.mem(th, u.in, av)
		if err != nil {
			return 0, err
		}
		v := *cell
		regs[u.dst] = v
		if op == mLoadEv && tr != nil {
			e.stats.Loads++
			e.traceLoad(th.id, u.in, av, v)
		}
		return av, nil
	case mStore, mStoreEv:
		cell, err := e.mem(th, u.in, av)
		if err != nil {
			return 0, err
		}
		*cell = bv
		if op == mStoreEv && tr != nil {
			e.stats.Stores++
			e.traceStore(th.id, u.in, av, bv)
		}
		return av, nil
	}
	return 0, nil
}

// execEvent delivers one Exec event to the tracer.
func (e *engine) execEvent(t vc.TID, in *ir.Instr, f FrameID, a Addr) {
	e.stats.ExecEvents++
	if e.fpKind == FastSlice {
		e.ic.FastPath.Slow++
	}
	e.cfg.Tracer.Exec(t, in, f, a)
}

// step executes one instruction other than a fused-run head, a call
// or a return, with the per-instruction bookkeeping of unfused
// execution: its Exec event, the abort poll, and the yield test. It
// returns the frame execution continues in, or nil when the slice
// ends here (err says why, nil for a plain yield or a blocked retry).
func (e *engine) step(th *cthread, fr *cframe, in *cinstr) (*cframe, error) {
	tr := e.cfg.Tracer
	var accessAddr Addr
	yield := false

	switch in.op {
	case cCopy:
		fr.regs[in.dst] = opval(fr.regs, in.a)
		fr.pc++
	case cNeg:
		fr.regs[in.dst] = -opval(fr.regs, in.a)
		fr.pc++
	case cNot:
		fr.regs[in.dst] = b2i(opval(fr.regs, in.a) == 0)
		fr.pc++
	case cBin:
		fr.regs[in.dst] = evalBin(in.bin, opval(fr.regs, in.a), opval(fr.regs, in.b))
		fr.pc++
	case cAlloc:
		n := opval(fr.regs, in.a)
		if n < 0 || n >= OffSpan {
			return nil, e.trap(th, in.in, "bad allocation size %d", n)
		}
		obj := len(e.objects)
		e.objects = append(e.objects, make([]int64, n))
		e.lockTab = append(e.lockTab, nil)
		fr.regs[in.dst] = MakeAddr(obj, 0)
		fr.pc++
	case cLoad:
		a := opval(fr.regs, in.a)
		if in.flags&fNullEv != 0 {
			e.stats.NullChecks++
			if a == 0 {
				// Recovered nil deref, mirroring the tree-walker: the
				// load yields 0 and no memory is touched.
				fr.regs[in.dst] = 0
				if tr != nil {
					tr.NilDeref(th.id, in.in)
				}
				fr.pc++
				break
			}
		}
		// Inlined e.mem hit path (see mLoad); the slow path
		// re-resolves only to trap or grow-agnostic cases.
		var v int64
		if obj, off := DecodeAddr(a); IsPtr(a) && obj < len(e.objects) && uint64(off) < uint64(len(e.objects[obj])) {
			v = e.objects[obj][off]
		} else {
			cell, err := e.mem(th, in.in, a)
			if err != nil {
				return nil, err
			}
			v = *cell
		}
		fr.regs[in.dst] = v
		accessAddr = a
		if in.flags&fMemEv != 0 && tr != nil {
			e.stats.Loads++
			// Inlined same-epoch fast path; all other shapes
			// (transitions, misses, other fast kinds) outlined.
			if e.fpKind == FastEpoch && e.fpReadHit(th.id, a-PtrBase) {
				*e.fpChecks++
				e.ic.FastPath.Hits++
			} else {
				e.traceLoad(th.id, in.in, a, v)
			}
		}
		fr.pc++
	case cStore:
		a := opval(fr.regs, in.a)
		if in.flags&fNullEv != 0 {
			e.stats.NullChecks++
			if a == 0 {
				// Recovered nil deref: the store is dropped.
				if tr != nil {
					tr.NilDeref(th.id, in.in)
				}
				fr.pc++
				break
			}
		}
		v := opval(fr.regs, in.b)
		// Inlined e.mem hit path (see mStore).
		if obj, off := DecodeAddr(a); IsPtr(a) && obj < len(e.objects) && uint64(off) < uint64(len(e.objects[obj])) {
			e.objects[obj][off] = v
		} else {
			cell, err := e.mem(th, in.in, a)
			if err != nil {
				return nil, err
			}
			*cell = v
		}
		accessAddr = a
		if in.flags&fMemEv != 0 && tr != nil {
			e.stats.Stores++
			// Inlined same-epoch fast path; see cLoad.
			if e.fpKind == FastEpoch && e.fpWriteHit(th.id, a-PtrBase) {
				*e.fpChecks++
				e.ic.FastPath.Hits++
			} else {
				e.traceStore(th.id, in.in, a, v)
			}
		}
		fr.pc++
	case cLock:
		a := opval(fr.regs, in.a)
		if !IsPtr(a) {
			return nil, e.trap(th, in.in, "lock of non-pointer value %s", FormatValue(a))
		}
		switch h := e.lockGet(a); h {
		case 0:
			if th.state == tBlockedLock {
				e.unblock(th) // first: th must not count as a waiter below
			}
			e.lockSet(a, int32(th.id)+1)
			accessAddr = a
			if in.flags&fSyncEv != 0 && tr != nil {
				e.stats.Locks++
				tr.Lock(th.id, in.in, a)
			}
			fr.pc++
			yield = true
		case int32(th.id) + 1:
			return nil, e.trap(th, in.in, "recursive lock of %s", FormatValue(a))
		default:
			if th.state == tRunning {
				e.block(th, tBlockedLock)
			}
			th.waitAddr = a
			e.stats.Steps-- // retried; don't double-count
			if e.cfg.Abort != nil && e.cfg.Abort.IsSet() {
				return nil, e.aborted()
			}
			return nil, nil
		}
	case cUnlock:
		a := opval(fr.regs, in.a)
		if !IsPtr(a) {
			return nil, e.trap(th, in.in, "unlock of non-pointer value %s", FormatValue(a))
		}
		if e.lockGet(a) != int32(th.id)+1 {
			return nil, e.trap(th, in.in, "unlock of mutex not held: %s", FormatValue(a))
		}
		accessAddr = a
		if in.flags&fSyncEv != 0 && tr != nil {
			e.stats.Unlocks++
			tr.Unlock(th.id, in.in, a)
		}
		e.lockSet(a, 0)
		fr.pc++
		yield = true
	case cSpawn:
		callee, err := e.resolveCallee(th, fr, in)
		if err != nil {
			return nil, err
		}
		child := e.spawnThread(callee)
		cf := child.frames[0]
		for i, p := range callee.params {
			cf.regs[p] = opval(fr.regs, in.args[i])
		}
		if in.dst >= 0 {
			fr.regs[in.dst] = int64(child.id)
		}
		if tr != nil {
			e.stats.Spawns++
			tr.Spawn(th.id, in.in, child.id, cf.id, callee.fn)
		}
		fr.pc++
		if callee.entryEv && tr != nil {
			e.blockEnter(tr, child.id, callee.entryB)
		}
		yield = true
	case cJoin:
		v := opval(fr.regs, in.a)
		if v < 0 || v >= int64(len(e.threads)) || vc.TID(v) == th.id {
			return nil, e.trap(th, in.in, "join of invalid thread %s", FormatValue(v))
		}
		target := e.threads[v]
		if target.state != tDone {
			if th.state == tRunning {
				e.block(th, tBlockedJoin)
			}
			th.waitTID = target.id
			e.stats.Steps--
			if e.cfg.Abort != nil && e.cfg.Abort.IsSet() {
				return nil, e.aborted()
			}
			return nil, nil
		}
		if th.state == tBlockedJoin {
			e.unblock(th)
		}
		if tr != nil {
			e.stats.Joins++
			tr.Join(th.id, in.in, target.id)
		}
		fr.pc++
		yield = true
	case cJmp:
		fr.pc = in.t0
		if in.flags&fBlkEv0 != 0 && tr != nil {
			e.blockEnter(tr, th.id, in.b0)
		}
	case cBr:
		if opval(fr.regs, in.a) != 0 {
			fr.pc = in.t0
			if in.flags&fBlkEv0 != 0 && tr != nil {
				e.blockEnter(tr, th.id, in.b0)
			}
		} else {
			fr.pc = in.t1
			if in.flags&fBlkEv1 != 0 && tr != nil {
				e.blockEnter(tr, th.id, in.b1)
			}
		}
	case cPrint:
		e.output = append(e.output, opval(fr.regs, in.a))
		fr.pc++
	case cInput:
		fr.regs[in.dst] = e.input(opval(fr.regs, in.a))
		fr.pc++
	case cNInputs:
		fr.regs[in.dst] = int64(len(e.cfg.Inputs))
		fr.pc++
	default:
		return nil, e.trap(th, in.in, "unknown opcode %s", in.in.Op)
	}

	if in.flags&fExecEv != 0 && tr != nil {
		if e.fpKind == FastSlice && skipExec(in.op) {
			// The slicer ignores Exec for these opcodes before
			// touching any state; the delivery itself is the only
			// thing skipped, the event is still counted.
			e.stats.ExecEvents++
			e.ic.FastPath.Hits++
		} else {
			e.execEvent(th.id, in.in, fr.id, accessAddr)
		}
	}
	if e.cfg.Abort != nil && e.cfg.Abort.IsSet() {
		return nil, e.aborted()
	}
	if yield || th.state != tRunning {
		return nil, nil
	}
	return fr, nil
}

// enterMain delivers the main entry's BlockEnter. The tree-walker
// first polls the abort flag after the first instruction, and a fused
// run polls only after a slow-path delivery, so an abort raised here
// cuts the first slice, and with it the run, to one instruction.
func (e *engine) enterMain(tr Tracer, t vc.TID) {
	e.blockEnter(tr, t, e.code.main.entryB)
	if e.cfg.Abort != nil && e.cfg.Abort.IsSet() {
		e.cfg.Quantum = 1
	}
}
