// Package dynslice implements a Giri-style trace-based dynamic
// backward slicer (Sahoo et al., the dynamic slicer OptSlice
// accelerates) as an interpreter Tracer.
//
// During execution it records one trace node per traced instruction
// instance, with edges to the dynamic definitions the instance used:
// register dataflow within each activation, call/return/spawn binding
// across activations, and memory dataflow through last-writer
// tracking per address. A backward slice is then the transitive
// closure of a criterion instance over those edges, reported as the
// set of static instructions involved (data-flow slices only — no
// control dependencies, matching OptSlice §5).
//
// Hybrid slicing traces only the instructions in a static slice (the
// interpreter's Masks.Exec); every dynamic dependence chain that reaches
// the criterion is contained in a sound static slice, so the computed
// dynamic slice is unchanged — that is the hybrid-Giri optimization.
// Full tracing of non-trivial executions exhausts memory quickly
// (MaxNodes models the paper's observation that pure Giri "exhausts
// system resources even on modest executions").
//
// The shadow state is flat so that recording a node costs no map
// operation and no heap allocation in steady state: dependence edges
// live in one arena, register definitions in per-activation rows
// indexed by ir.Var.ID, and memory definitions in per-object rows
// mirroring the interpreter's heap.
package dynslice

import (
	"errors"
	"slices"
	"sync"

	"oha/internal/bitset"
	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/vc"
)

// ErrTraceExhausted is reported (via the interpreter's Abort flag)
// when the trace exceeds MaxNodes.
var ErrTraceExhausted = errors.New("dynslice: trace node limit exceeded")

// defaultMaxNodes is the trace bound a zero MaxNodes stands for.
const defaultMaxNodes = 4 << 20

// pool recycles released tracers, so a run's arenas and shadow rows
// start at the capacity an earlier run grew them to. Idle tracers are
// dropped by the garbage collector like any pooled value.
var pool sync.Pool

// node is one dynamic instruction instance. Its dependence edges are
// deps[dep : next node's dep] of the tracer's arena.
type node struct {
	instr int32
	dep   int32
}

// Tracer records the dynamic dependence trace. Install as the
// interpreter's Tracer with Masks.Exec covering the instructions to
// trace (or ExecAll for full Giri).
type Tracer struct {
	interp.NopTracer
	prog *ir.Program

	nodes []node
	// deps is the dependence-edge arena shared by all nodes.
	deps []int32

	// rows holds one register row per live activation, indexed by
	// ir.Var.ID (node id + 1, 0 meaning "no traced definition"); rows of
	// returned activations go on freeRows for reuse. stacks mirrors each
	// thread's call stack (by TID) from the Call/Spawn/Ret events, which
	// the interpreter delivers whenever a tracer is installed, so the
	// executing frame's row is found by comparing against the top
	// entries — no lookup. retiring is the activation whose Ret was just
	// delivered: its ret's Exec, in the same interpreter step, still
	// reads it (frame IDs start at 1, so a zero frame marks none).
	rows     [][]int32
	freeRows []int32
	stacks   [][]activation
	retiring activation
	// cur caches the row of curFrame, the activation of the last Exec
	// that recorded a node. Frame IDs are unique within a run, so once
	// curFrame retires no Exec names it again, and the recycled row
	// cur may still share is never read through the cache.
	curFrame interp.FrameID
	cur      []int32

	// lastMem tracks each address's last traced store node, laid out as
	// per-object slices mirroring the interpreter's heap
	// (lastMem[obj][off] = node id + 1, 0 meaning "no traced store").
	// Addresses reaching Exec passed the interpreter's bounds checks,
	// so indexing is dense — no map work on the per-access hot path.
	lastMem [][]int32
	// lastInstance records each static instr ID's latest node, as a
	// dense slice indexed by instr ID (node id + 1, 0 meaning "never
	// executed") — the criterion lookup and the per-node update are
	// both O(1) with no map work.
	lastInstance []int32

	// pendingCall/pendingRet stash cross-activation binding info
	// delivered by the Call or Spawn and the Ret events until the
	// matching Exec event arrives, in the same interpreter step (a nil
	// site / zero callee frame marks an empty slot). They are held by
	// value: no allocation per call.
	pendingCall callBinding
	pendingRet  retBinding

	// MaxNodes bounds the trace (0: 4M nodes). On overflow the tracer
	// raises Abort (if set) and stops recording.
	MaxNodes int
	Abort    *interp.Abort
	full     bool
}

// activation is one live frame and the slot of its register row.
type activation struct {
	frame interp.FrameID
	slot  int32
}

type callBinding struct {
	site   *ir.Instr
	callee *ir.Function
	slot   int32 // the callee activation's row
}

type retBinding struct {
	callee interp.FrameID
	caller int32 // the caller activation's row
	dst    *ir.Var
}

// New returns a tracer for prog. abort, when non-nil, lets the tracer
// stop the execution if the trace overflows MaxNodes. The tracer comes
// from a pool of released ones when one is there; it is reset first,
// so it behaves exactly like a freshly allocated tracer.
func New(prog *ir.Program, abort *interp.Abort) *Tracer {
	tr, _ := pool.Get().(*Tracer)
	if tr == nil {
		tr = &Tracer{}
	}
	tr.reset(prog, abort)
	return tr
}

// Release returns tr to the pool New draws from. tr may not be used
// after Release; the Slices it returned stay valid.
func (tr *Tracer) Release() { pool.Put(tr) }

// reset empties every table while keeping its storage. Rows are
// truncated to length zero and regrown in place by push and memDefine,
// which clear what they expose again.
func (tr *Tracer) reset(prog *ir.Program, abort *interp.Abort) {
	tr.prog = prog
	tr.nodes = tr.nodes[:0]
	tr.deps = tr.deps[:0]
	tr.rows = tr.rows[:0]
	tr.freeRows = tr.freeRows[:0]
	for i := range tr.stacks {
		tr.stacks[i] = tr.stacks[i][:0]
	}
	tr.retiring = activation{}
	tr.curFrame, tr.cur = 0, nil
	for i := range tr.lastMem {
		tr.lastMem[i] = tr.lastMem[i][:0]
	}
	tr.lastInstance = slices.Grow(tr.lastInstance[:0], len(prog.Instrs))[:len(prog.Instrs)]
	clear(tr.lastInstance)
	tr.pendingCall = callBinding{}
	tr.pendingRet = retBinding{}
	tr.MaxNodes = 0
	tr.Abort = abort
	tr.full = false
}

// sliceFast is every slicer's fast-path state. The engine only reads
// a FastSlice state, so one shared value serves every run.
var sliceFast = interp.FastState{Kind: interp.FastSlice}

// FastState implements interp.FastTracer: Exec events for opcodes the
// slicer unconditionally ignores (its first check, before any state)
// are skipped inside the engine's dispatch loop.
func (tr *Tracer) FastState() *interp.FastState { return &sliceFast }

// NodeCount returns the number of trace nodes recorded.
func (tr *Tracer) NodeCount() int { return len(tr.nodes) }

// Overflowed reports whether the trace hit MaxNodes.
func (tr *Tracer) Overflowed() bool { return tr.full }

// Call pushes the callee's activation and stashes the parameter
// binding for the imminent Exec of the call.
func (tr *Tracer) Call(t vc.TID, in *ir.Instr, callee *ir.Function, caller, calleeFrame interp.FrameID) {
	if int(t) >= len(tr.stacks) || len(tr.stacks[t]) == 0 {
		// main's root activation is announced by no event.
		tr.push(t, caller, in.Block.Fn)
	}
	tr.pendingCall = callBinding{site: in, callee: callee, slot: tr.push(t, calleeFrame, callee)}
}

// Spawn starts the child thread's stack with its root activation and
// stashes the parameter binding for the imminent Exec of the spawn.
func (tr *Tracer) Spawn(_ vc.TID, in *ir.Instr, child vc.TID, childFrame interp.FrameID, callee *ir.Function) {
	tr.pendingCall = callBinding{site: in, callee: callee, slot: tr.push(child, childFrame, callee)}
}

// Ret pops the callee's activation and stashes the return binding for
// the imminent Exec of the ret. The ret and its Exec are one
// interpreter step, so an activation still retiring here belonged to an
// untraced ret: its row is recycled now.
func (tr *Tracer) Ret(t vc.TID, _ *ir.Instr, callee, _ interp.FrameID, dst *ir.Var) {
	tr.retire()
	var st []activation
	if int(t) < len(tr.stacks) {
		st = tr.stacks[t]
	}
	n := len(st)
	if n == 0 || st[n-1].frame != callee {
		// An activation no event announced that executed nothing traced
		// (main's root): no row, no binding.
		tr.pendingRet = retBinding{}
		return
	}
	tr.retiring = st[n-1]
	tr.stacks[t] = st[:n-1]
	tr.pendingRet = retBinding{callee: callee, caller: -1, dst: dst}
	if n > 1 {
		tr.pendingRet.caller = st[n-2].slot
	}
}

// push starts a cleared register row for a new activation of fn on
// thread t's stack and returns its slot.
func (tr *Tracer) push(t vc.TID, frame interp.FrameID, fn *ir.Function) int32 {
	var s int32
	if k := len(tr.freeRows); k > 0 {
		s = tr.freeRows[k-1]
		tr.freeRows = tr.freeRows[:k-1]
	} else {
		// Within capacity the slot keeps the row array a released run
		// left there; it is cleared below like any reused row.
		s = int32(len(tr.rows))
		tr.rows = slices.Grow(tr.rows, 1)[:s+1]
	}
	n := len(fn.Vars)
	if r := tr.rows[s]; cap(r) >= n {
		r = r[:n]
		clear(r)
		tr.rows[s] = r
	} else {
		tr.rows[s] = make([]int32, n)
	}
	for int(t) >= len(tr.stacks) {
		tr.stacks = append(tr.stacks, nil)
	}
	tr.stacks[t] = append(tr.stacks[t], activation{frame: frame, slot: s})
	return s
}

// retire recycles the retiring activation's row, if any.
func (tr *Tracer) retire() {
	if tr.retiring.frame != 0 {
		tr.freeRows = append(tr.freeRows, tr.retiring.slot)
		tr.retiring = activation{}
	}
}

// frameRow returns the row slot of frame, executing on thread t. The
// frame is the top of t's stack, except for the Exec of a ret (the
// retiring activation) and of a call (the caller, just below the
// callee the Call event pushed). A frame found nowhere is a root
// activation no event announced.
func (tr *Tracer) frameRow(t vc.TID, frame interp.FrameID, fn *ir.Function) int32 {
	if int(t) < len(tr.stacks) {
		st := tr.stacks[t]
		n := len(st)
		if n > 0 && st[n-1].frame == frame {
			return st[n-1].slot
		}
		if tr.retiring.frame == frame {
			return tr.retiring.slot
		}
		if n > 1 && st[n-2].frame == frame {
			return st[n-2].slot
		}
	}
	return tr.push(t, frame, fn)
}

// memLast returns the last traced store node for addr, if any.
func (tr *Tracer) memLast(a interp.Addr) (int32, bool) {
	obj, off := interp.DecodeAddr(a)
	if obj < len(tr.lastMem) {
		if cells := tr.lastMem[obj]; int(off) < len(cells) {
			if n := cells[off]; n != 0 {
				return n - 1, true
			}
		}
	}
	return 0, false
}

// memDefine records node id as addr's last traced store.
func (tr *Tracer) memDefine(a interp.Addr, id int32) {
	obj, off := interp.DecodeAddr(a)
	for obj >= len(tr.lastMem) {
		tr.lastMem = append(tr.lastMem, nil)
	}
	cells := tr.lastMem[obj]
	if old := len(cells); int(off) >= old {
		n := max(int(off)+1, 2*old)
		cells = slices.Grow(cells, n-old)[:n]
		clear(cells[old:])
		tr.lastMem[obj] = cells
	}
	cells[off] = id + 1
}

// operandDep appends the defining node of a register operand, if
// traced, to the dependence arena.
func (tr *Tracer) operandDep(regs []int32, op *ir.Operand) {
	if op.Kind != ir.OperVar {
		return
	}
	if n := regs[op.Var.ID]; n != 0 {
		tr.deps = append(tr.deps, n-1)
	}
}

// Exec records one dynamic instance.
func (tr *Tracer) Exec(t vc.TID, in *ir.Instr, frame interp.FrameID, addr interp.Addr) {
	switch in.Op {
	case ir.OpJmp, ir.OpBr, ir.OpLock, ir.OpUnlock, ir.OpJoin:
		// Control flow and synchronization define no data, and
		// data-flow slices ignore control dependences: no node.
		return
	}
	if tr.full {
		return
	}
	limit := tr.MaxNodes
	if limit == 0 {
		limit = defaultMaxNodes
	}
	if len(tr.nodes) >= limit {
		tr.full = true
		if tr.Abort != nil {
			tr.Abort.Set(ErrTraceExhausted.Error())
		}
		return
	}

	regs := tr.cur
	if frame != tr.curFrame {
		regs = tr.rows[tr.frameRow(t, frame, in.Block.Fn)]
		tr.curFrame, tr.cur = frame, regs
	}
	id := int32(len(tr.nodes))
	tr.nodes = append(tr.nodes, node{instr: int32(in.ID), dep: int32(len(tr.deps))})
	tr.operandDep(regs, &in.A)
	tr.operandDep(regs, &in.B)
	for i := range in.Args {
		tr.operandDep(regs, &in.Args[i])
	}
	if in.Op == ir.OpLoad {
		if n, ok := tr.memLast(addr); ok {
			tr.deps = append(tr.deps, n)
		}
	}
	tr.lastInstance[in.ID] = id + 1

	// Effects: define registers/memory and cross-activation bindings.
	switch in.Op {
	case ir.OpStore:
		tr.memDefine(addr, id)
	case ir.OpCall, ir.OpSpawn:
		// The call's result is defined by the ret node later; the call
		// node itself stands in until the ret arrives (calls into
		// untraced code keep this binding).
		if in.Dst != nil {
			regs[in.Dst.ID] = id + 1
		}
		if pc := tr.pendingCall; pc.site == in {
			r := tr.rows[pc.slot]
			for _, p := range pc.callee.Params {
				r[p.ID] = id + 1
			}
			tr.pendingCall = callBinding{}
		}
	case ir.OpRet:
		if pr := tr.pendingRet; pr.callee == frame {
			if pr.dst != nil && pr.caller >= 0 {
				tr.rows[pr.caller][pr.dst.ID] = id + 1
			}
			tr.pendingRet = retBinding{}
			tr.retire()
		}
	default:
		if in.Dst != nil {
			regs[in.Dst.ID] = id + 1
		}
	}
}

// Slice computes the dynamic backward slice from the latest instance
// of the criterion instruction. It returns nil if the criterion never
// executed (or was not traced).
func (tr *Tracer) Slice(criterion *ir.Instr) *Slice {
	if criterion.ID >= len(tr.lastInstance) || tr.lastInstance[criterion.ID] == 0 {
		return nil
	}
	return tr.sliceFrom([]int32{tr.lastInstance[criterion.ID] - 1}, criterion)
}

// SliceAllInstances slices from every dynamic instance of the
// criterion (useful when the "failure" could be any instance).
func (tr *Tracer) SliceAllInstances(criterion *ir.Instr) *Slice {
	var starts []int32
	for i, n := range tr.nodes {
		if n.instr == int32(criterion.ID) {
			starts = append(starts, int32(i))
		}
	}
	if len(starts) == 0 {
		return nil
	}
	return tr.sliceFrom(starts, criterion)
}

func (tr *Tracer) sliceFrom(starts []int32, criterion *ir.Instr) *Slice {
	s := &Slice{Instrs: &bitset.Set{}, Criterion: criterion}
	seen := bitset.New(len(tr.nodes))
	work := append([]int32(nil), starts...)
	for _, w := range work {
		seen.Add(int(w))
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		s.DynNodes++
		s.Instrs.Add(int(tr.nodes[n].instr))
		end := int32(len(tr.deps))
		if int(n)+1 < len(tr.nodes) {
			end = tr.nodes[n+1].dep
		}
		for _, d := range tr.deps[tr.nodes[n].dep:end] {
			if seen.Add(int(d)) {
				work = append(work, d)
			}
		}
	}
	return s
}

// Slice is a dynamic backward slice.
type Slice struct {
	// Instrs is the set of static instruction IDs whose instances
	// affected the criterion.
	Instrs *bitset.Set
	// DynNodes is the number of dynamic instances in the slice.
	DynNodes  int
	Criterion *ir.Instr
}

// Size returns the number of static instructions in the slice.
func (s *Slice) Size() int { return s.Instrs.Len() }

// Equal reports whether two slices cover the same static instructions.
func (s *Slice) Equal(o *Slice) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.Instrs.Equal(o.Instrs)
}
