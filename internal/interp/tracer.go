package interp

import (
	"oha/internal/ir"
	"oha/internal/vc"
)

// FrameID uniquely identifies one activation of a function within one
// execution (it distinguishes recursive and concurrent activations of
// the same function).
type FrameID uint64

// Tracer receives instrumentation events from the interpreter. This is
// the reproduction's equivalent of a RoadRunner tool (for OptFT) or
// Giri's tracing runtime (for OptSlice): dynamic analyses implement
// Tracer and are driven by the events the interpreter delivers.
//
// Which events are delivered is controlled per-site by the masks in
// Config — eliding instrumentation means clearing mask bits, exactly
// as a hybrid analysis removes instrumentation the static phase proved
// unnecessary.
type Tracer interface {
	// Load is delivered after a masked OpLoad reads addr.
	Load(t vc.TID, in *ir.Instr, addr Addr, val int64)
	// Store is delivered after a masked OpStore writes addr.
	Store(t vc.TID, in *ir.Instr, addr Addr, val int64)
	// Lock is delivered after a masked OpLock acquires addr.
	Lock(t vc.TID, in *ir.Instr, addr Addr)
	// Unlock is delivered before a masked OpUnlock releases addr.
	Unlock(t vc.TID, in *ir.Instr, addr Addr)
	// Spawn is delivered when t creates child, which runs callee
	// (always on).
	Spawn(t vc.TID, in *ir.Instr, child vc.TID, childFrame FrameID, callee *ir.Function)
	// Join is delivered when t observes child's completion (always on).
	Join(t vc.TID, in *ir.Instr, child vc.TID)
	// BlockEnter is delivered when control enters a masked block.
	BlockEnter(t vc.TID, b *ir.Block)
	// Call is delivered when a call instruction pushes a frame for
	// callee (always on while a tracer is installed).
	Call(t vc.TID, in *ir.Instr, callee *ir.Function, caller, calleeFrame FrameID)
	// Ret is delivered when a function activation returns; in is the
	// OpRet instruction, dst the caller register receiving the value.
	Ret(t vc.TID, in *ir.Instr, callee, caller FrameID, dst *ir.Var)
	// Exec is delivered after each masked instruction executes; addr
	// is the accessed address for load/store and 0 otherwise. It is
	// the firehose event used by full dynamic slicing. The Exec of a
	// call, spawn or ret follows that step's Call, Spawn or Ret event;
	// its frame is the caller's for a call or spawn and the returning
	// activation's for a ret.
	Exec(t vc.TID, in *ir.Instr, frame FrameID, addr Addr)
	// NilDeref is delivered when a load/store flagged by NullMask
	// observes address 0: the access was recovered (load yields 0,
	// store dropped) instead of trapping. No Load/Store event
	// accompanies it — no memory was touched.
	NilDeref(t vc.TID, in *ir.Instr)
}

// NopTracer implements Tracer with no-ops; embed it to implement only
// the events an analysis needs.
type NopTracer struct{}

// Load implements Tracer.
func (NopTracer) Load(vc.TID, *ir.Instr, Addr, int64) {}

// Store implements Tracer.
func (NopTracer) Store(vc.TID, *ir.Instr, Addr, int64) {}

// Lock implements Tracer.
func (NopTracer) Lock(vc.TID, *ir.Instr, Addr) {}

// Unlock implements Tracer.
func (NopTracer) Unlock(vc.TID, *ir.Instr, Addr) {}

// Spawn implements Tracer.
func (NopTracer) Spawn(vc.TID, *ir.Instr, vc.TID, FrameID, *ir.Function) {}

// Join implements Tracer.
func (NopTracer) Join(vc.TID, *ir.Instr, vc.TID) {}

// BlockEnter implements Tracer.
func (NopTracer) BlockEnter(vc.TID, *ir.Block) {}

// Call implements Tracer.
func (NopTracer) Call(vc.TID, *ir.Instr, *ir.Function, FrameID, FrameID) {}

// Ret implements Tracer.
func (NopTracer) Ret(vc.TID, *ir.Instr, FrameID, FrameID, *ir.Var) {}

// Exec implements Tracer.
func (NopTracer) Exec(vc.TID, *ir.Instr, FrameID, Addr) {}

// NilDeref implements Tracer.
func (NopTracer) NilDeref(vc.TID, *ir.Instr) {}
