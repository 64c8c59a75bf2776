// Inline analysis fast paths. A Tracer may additionally implement
// FastTracer to expose flat, engine-adjacent shadow state that the
// compiled engine indexes directly, so the common-case memory event
// never leaves the dispatch loop.
//
// The protocol is deliberately narrow: the client publishes *pointers*
// to its own slices (per-thread epochs, per-address read/write epoch
// rows), and the engine re-derefs them on every event, so the client
// may grow or replace the backing arrays at any slow-path boundary
// without re-registering. A fast-path *hit* must be provably
// equivalent to calling the full Tracer method: for FastTrack that is
// the same-epoch early return (both Load and Store check it before
// anything else) and the thread-exclusive transition — when the
// address's read and write epoch slots are both owned by the
// accessing thread or empty, every happens-before comparison the full
// rules perform is a same-thread clock check that trivially passes,
// so the update degenerates to storing the current epoch and the
// attribution instr; for the null observer it is "value is non-nil,
// no fact consulted"; for the slicer it is an opcode class Exec
// ignores unconditionally. Anything the engine cannot prove cheap
// falls back to the ordinary interface call, in program order.
package interp

import (
	"oha/internal/ir"
	"oha/internal/vc"
)

// FastKind selects which inline fast path the engine arms.
type FastKind uint8

// Fast-path kinds.
const (
	// FastNone disables the fast path; every event is an interface call.
	FastNone FastKind = iota
	// FastEpoch is the FastTrack shape: per-thread current epoch plus
	// per-address read/write epoch slots. A memory event whose address
	// slot already holds the thread's current epoch is a no-op beyond
	// a check-counter increment; an event whose read AND write slots
	// are owned by the accessing thread (or empty) settles with one
	// epoch store plus an attribution-instr store — the happens-before
	// checks pass trivially because a thread's own past epoch is always
	// below its current clock.
	FastEpoch
	// FastNull is the null-observer shape: a load of a non-nil value
	// is recorded (or ignored) without consulting facts; only v==0
	// takes the interface call. Stores always call through.
	FastNull
	// FastSlice is the dynamic-slicer shape: Exec events for opcode
	// classes the slicer unconditionally ignores (jumps, branches,
	// lock/unlock, join) are skipped engine-side.
	FastSlice
)

// FastState describes the client's engine-adjacent shadow state. All
// slice pointers are double-indirect so the client can grow or swap
// the backing arrays at any slow-path boundary; the engine re-derefs
// on every event and treats short rows / zero epochs as "slow path".
type FastState struct {
	Kind FastKind

	// Epochs is the per-thread current epoch, indexed by vc.TID. A
	// zero entry means "unknown, take the slow path" (real epochs
	// always carry clock >= 1, and ReadShared is all-ones, so zero
	// never aliases a valid fast-path epoch). FastEpoch only.
	Epochs *[]vc.Epoch

	// Read and Write are per-(object, offset) epoch rows indexed by
	// the DecodeAddr components of the access address. Missing or
	// short rows mean slow path. FastEpoch only.
	Read  *[][]vc.Epoch
	Write *[][]vc.Epoch

	// ReadInstr and WriteInstr are the race-attribution rows grown in
	// lockstep with Read/Write: the instruction of the last exclusive
	// read / last write per address. The engine's thread-exclusive
	// transition stores into them exactly where the client's own
	// EXCLUSIVE/write rules would, so later race reports attribute the
	// identical earlier access with the fast path on or off. FastEpoch
	// only; both must be non-nil for the epoch fast path to arm.
	ReadInstr  *[][]*ir.Instr
	WriteInstr *[][]*ir.Instr

	// Checks, when non-nil, is incremented once per fast-path hit so
	// the client's own event accounting (e.g. fasttrack Checks) stays
	// identical with the fast path on or off.
	Checks *uint64

	// Blocks, when it has an entry per program block, replaces the
	// BlockEnter call: the engine stores Blocks[b.ID] = true at every
	// flagged block entry instead. It suits a client whose BlockEnter
	// only records that the block ran. The store is idempotent and
	// commutes with every other event, so it sees the same set of
	// blocks as the calls would. Independent of Kind.
	Blocks []bool
}

// FastTracer is the optional contract a Tracer implements to arm the
// engine's inline fast paths.
type FastTracer interface {
	Tracer
	// FastState returns the client's shadow-state descriptor. Called
	// once per engine construction; the descriptor's slice pointers
	// are re-derefed per event, so the same descriptor stays valid
	// across state growth.
	FastState() *FastState
}
