// Package fasttrack implements the FastTrack dynamic happens-before
// data-race detector (Flanagan & Freund, PLDI 2009) as an interpreter
// Tracer — the dynamic-analysis client that OptFT accelerates.
//
// The implementation follows the published algorithm: every thread
// carries a vector clock C_t, every lock a vector clock L_m, and every
// memory word an epoch pair (W_x, R_x) where the read metadata
// adaptively inflates to a full vector clock when reads are concurrent
// (the READ_SHARED state). The epoch fast paths make the common case
// O(1), which is what makes FastTrack "fast"; the same structure makes
// the per-event cost here roughly constant, so eliding instrumentation
// translates into proportional time savings, as in the paper.
//
// The shadow state is laid out for the compiled engine's inline fast
// path (interp.FastTracer): the per-word read/write epochs live in
// flat per-object rows (rEp/wEp) the engine indexes directly, the
// per-thread current epochs are mirrored into a dense slice refreshed
// at every clock mutation, and the race-attribution sites live in
// parallel rIn/wIn rows. A same-epoch access is thereby settled
// inside the dispatch loop with one compare — exactly the detector's
// own SAME EPOCH early return, which both Load and Store take before
// any other check — and a thread-exclusive access (both epoch slots
// owned by the accessing thread or empty, so every vector-clock
// comparison below is a same-thread check that trivially passes)
// with one epoch store plus an attribution store, mirroring the
// EXCLUSIVE/write rules exactly. Only the truly cold metadata (the
// inflated READ_SHARED clock) stays engine-invisible. Lock clocks live
// in per-object rows too, so a lock or unlock event does no map lookup.
package fasttrack

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/vc"
)

// RaceKind classifies a detected race.
type RaceKind uint8

// Race kinds.
const (
	WriteWrite RaceKind = iota
	WriteRead           // earlier write races with this read
	ReadWrite           // earlier read races with this write
)

func (k RaceKind) String() string {
	switch k {
	case WriteWrite:
		return "write-write"
	case WriteRead:
		return "write-read"
	}
	return "read-write"
}

// Race is one detected data race. Prev describes the earlier access
// when known (nil when the earlier access's site was not recorded,
// e.g. a read of a READ_SHARED variable).
type Race struct {
	Kind RaceKind
	Addr interp.Addr
	// Instr is the access that detected the race.
	Instr *ir.Instr
	// Prev is the racing earlier access's instruction, if known.
	Prev *ir.Instr
	// TID is the detecting thread.
	TID vc.TID
}

func (r Race) String() string {
	prev := "?"
	if r.Prev != nil {
		prev = fmt.Sprintf("instr %d at %s", r.Prev.ID, r.Prev.Pos)
	}
	return fmt.Sprintf("%s race on %s: instr %d at %s vs %s",
		r.Kind, interp.FormatValue(r.Addr), r.Instr.ID, r.Instr.Pos, prev)
}

// Key identifies a race for deduplication and cross-detector
// comparison: the static instruction pair (ordered) plus kind.
//
// Read-write races are keyed by the writing instruction alone
// (B == -1): the identity of the earlier reader depends on whether the
// read metadata was in the EXCLUSIVE or READ_SHARED state, which in
// turn depends on which (provably race-free) reads were elided — so it
// is representation detail, not analysis result. Write-write and
// write-read races carry exact pairs (write metadata never inflates).
type Key struct {
	A, B int // instr IDs, A <= B (B == -1 when prev not part of the key)
	Kind RaceKind
}

// keyFor canonicalizes a race into its comparison key.
func keyFor(kind RaceKind, cur, prev *ir.Instr) Key {
	k := Key{A: cur.ID, B: -1, Kind: kind}
	if prev != nil && kind != ReadWrite {
		k.A, k.B = prev.ID, cur.ID
		if k.A > k.B {
			k.A, k.B = k.B, k.A
		}
	}
	return k
}

// varMeta is the cold per-variable metadata the fast path never
// writes: the inflated read clock. The hot epochs live in the
// detector's rEp/wEp rows and the attribution sites in rIn/wIn, all
// indexed directly by the engine's inline fast path.
type varMeta struct {
	rvc *vc.VC // read vector clock when READ_SHARED
}

// Detector is a FastTrack race detector; install it as the
// interpreter's Tracer. The zero value is not ready; use New.
type Detector struct {
	interp.NopTracer
	threads []*vc.VC
	// epochs mirrors each thread's current epoch C_t(t)@t, refreshed
	// at every clock mutation; the engine fast path reads it directly.
	// NoEpoch means "clock not created yet, take the slow path".
	epochs []vc.Epoch
	// locks are the lock clocks L_m in per-object rows (locks[obj][off],
	// nil: never released). The engine accepts a lock on any pointer,
	// including fabricated ones far outside the heap, so the rows and
	// their table hold at most lockSlack + 4 slots per lock clock made
	// this run (lockSlots counts them); a clock that does not fit lives
	// in lockOv for the rest of the run, pinned there even once the rows
	// grow past its address (see lockClock).
	locks      [][]*vc.VC
	lockOv     map[interp.Addr]*vc.VC
	lockSlots  int
	lockClocks int
	// rEp/wEp are the per-word read/write epochs, laid out as
	// per-object rows mirroring the interpreter's heap (rEp[obj][off]).
	// Addresses reaching Load/Store passed the interpreter's bounds
	// checks, so indexing is dense and NoEpoch means "never accessed" —
	// no map lookups or per-word allocations on the hot path. meta
	// holds the cold remainder, grown in lockstep.
	rEp [][]vc.Epoch
	wEp [][]vc.Epoch
	// rIn/wIn are the race-attribution rows: the instruction of the
	// last exclusive read / last write per word. The engine's
	// thread-exclusive inline transition stores into them exactly
	// where the EXCLUSIVE/write rules below would.
	rIn  [][]*ir.Instr
	wIn  [][]*ir.Instr
	meta [][]varMeta
	// spare holds bottom clocks for reuse: a write to a READ_SHARED
	// variable collapses its read state and frees the clock, and the
	// next SHARE inflation reuses it instead of allocating; reset frees
	// every thread, lock and read clock of the previous run here too.
	spare []*vc.VC
	races map[Key]Race
	// racyAddrs is tracked independently of the per-static-pair race
	// dedup: one static instruction can race on several addresses.
	racyAddrs map[interp.Addr]bool
	// Checks counts read/write metadata operations performed (the
	// "FastTrack checks" cost component of Figure 5). Engine fast-path
	// hits count here too, via FastState.Checks.
	Checks uint64
}

// pool recycles released detectors, so a run's shadow rows, clocks and
// maps start at the capacity an earlier run grew them to. Idle
// detectors are dropped by the garbage collector like any pooled value.
var pool sync.Pool

// New returns an empty detector. It comes from a pool of released ones
// when one is there; it is reset first, so it behaves exactly like a
// freshly allocated detector.
func New() *Detector {
	if d, _ := pool.Get().(*Detector); d != nil {
		d.reset()
		return d
	}
	return newDetector()
}

// newDetector allocates an empty detector.
func newDetector() *Detector {
	return &Detector{
		races:     map[Key]Race{},
		racyAddrs: map[interp.Addr]bool{},
	}
}

// Release returns d to the pool New draws from. d may not be used after
// Release; the slices Races, RaceKeys and RacyAddrs returned stay valid.
func (d *Detector) Release() { pool.Put(d) }

// reset empties every table while keeping its storage. Shadow rows are
// truncated to length zero, not cleared in place: the engine's inline
// fast path takes the slow path on any offset past a row's length, so
// a row must have exactly the length it has on a fresh detector, and
// state regrows it in place, clearing what it exposes again.
func (d *Detector) reset() {
	for _, c := range d.threads {
		d.freeVC(c)
	}
	d.threads = d.threads[:0]
	d.epochs = d.epochs[:0]
	for i, row := range d.locks {
		for _, lm := range row {
			d.freeVC(lm)
		}
		d.locks[i] = row[:0]
	}
	d.locks = d.locks[:0]
	for _, lm := range d.lockOv {
		d.freeVC(lm)
	}
	clear(d.lockOv)
	d.lockSlots, d.lockClocks = 0, 0
	for i, row := range d.meta {
		for _, m := range row {
			d.freeVC(m.rvc)
		}
		d.meta[i] = row[:0]
		d.rEp[i] = d.rEp[i][:0]
		d.wEp[i] = d.wEp[i][:0]
		d.rIn[i] = d.rIn[i][:0]
		d.wIn[i] = d.wIn[i][:0]
	}
	clear(d.races)
	clear(d.racyAddrs)
	d.Checks = 0
}

// FastState implements interp.FastTracer: the engine settles
// same-epoch and thread-exclusive reads and writes inline against the
// epoch and attribution rows and counts them as Checks; every other
// memory event is a Load or Store call.
func (d *Detector) FastState() *interp.FastState {
	return &interp.FastState{
		Kind:       interp.FastEpoch,
		Epochs:     &d.epochs,
		Read:       &d.rEp,
		Write:      &d.wEp,
		ReadInstr:  &d.rIn,
		WriteInstr: &d.wIn,
		Checks:     &d.Checks,
	}
}

// clock returns (creating if needed) thread t's vector clock. A fresh
// thread starts at clock 1 for itself.
func (d *Detector) clock(t vc.TID) *vc.VC {
	for int(t) >= len(d.threads) {
		d.threads = append(d.threads, nil)
		d.epochs = append(d.epochs, vc.NoEpoch)
	}
	if d.threads[t] == nil {
		c := d.newVC()
		c.Set(t, 1)
		d.threads[t] = c
		d.epochs[t] = vc.MakeEpoch(t, 1)
	}
	return d.threads[t]
}

// refresh re-mirrors thread t's current epoch after a clock mutation.
// Under the lock discipline only Tick can raise a thread's own entry,
// but joins are refreshed too so the mirror can never go stale.
func (d *Detector) refresh(t vc.TID) {
	d.epochs[t] = d.threads[t].Epoch(t)
}

// state resolves a to its (object, offset) shadow coordinates,
// growing the epoch and metadata rows in lockstep.
func (d *Detector) state(a interp.Addr) (int, int64) {
	obj, off := interp.DecodeAddr(a)
	for obj >= len(d.rEp) {
		d.rEp = append(d.rEp, nil)
		d.wEp = append(d.wEp, nil)
		d.rIn = append(d.rIn, nil)
		d.wIn = append(d.wIn, nil)
		d.meta = append(d.meta, nil)
	}
	if old := len(d.rEp[obj]); int(off) >= old {
		n := max(int(off)+1, 2*old)
		d.rEp[obj] = extend(d.rEp[obj], n)
		d.wEp[obj] = extend(d.wEp[obj], n)
		d.rIn[obj] = extend(d.rIn[obj], n)
		d.wIn[obj] = extend(d.wIn[obj], n)
		d.meta[obj] = extend(d.meta[obj], n)
	}
	return obj, off
}

// extend lengthens row to n, in place when its capacity allows, and
// zeroes the new tail: capacity a reset row kept may hold stale state.
func extend[T any](row []T, n int) []T {
	old := len(row)
	row = slices.Grow(row, n-old)[:n]
	clear(row[old:])
	return row
}

// newVC takes a bottom clock from spare or allocates one.
func (d *Detector) newVC() *vc.VC {
	if n := len(d.spare); n > 0 {
		c := d.spare[n-1]
		d.spare = d.spare[:n-1]
		return c
	}
	return vc.New()
}

// freeVC recycles a clock no longer in use (nil: none).
func (d *Detector) freeVC(c *vc.VC) {
	if c != nil {
		c.Reset()
		d.spare = append(d.spare, c)
	}
}

func (d *Detector) report(kind RaceKind, addr interp.Addr, t vc.TID, cur, prev *ir.Instr) {
	d.racyAddrs[addr] = true
	k := keyFor(kind, cur, prev)
	if _, dup := d.races[k]; !dup {
		d.races[k] = Race{Kind: kind, Addr: addr, Instr: cur, Prev: prev, TID: t}
	}
}

// Load implements the FastTrack read rules.
func (d *Detector) Load(t vc.TID, in *ir.Instr, addr interp.Addr, _ int64) {
	ct := d.clock(t)
	e := ct.Epoch(t)
	d.Checks++
	obj, off := d.state(addr)

	r := d.rEp[obj][off]
	if r == e {
		return // SAME EPOCH fast path
	}
	w := d.wEp[obj][off]
	// Write-read race check.
	if w != vc.NoEpoch && !ct.LeqEpoch(w) {
		d.report(WriteRead, addr, t, in, d.wIn[obj][off])
	}
	if r == vc.ReadShared {
		d.meta[obj][off].rvc.Set(t, e.Clock()) // SHARED
		return
	}
	if r == vc.NoEpoch || ct.LeqEpoch(r) {
		d.rEp[obj][off] = e // EXCLUSIVE
		d.rIn[obj][off] = in
		return
	}
	// SHARE: inflate to a read vector clock (pooled).
	rvc := d.newVC()
	rvc.Set(r.TID(), r.Clock())
	rvc.Set(t, e.Clock())
	d.meta[obj][off].rvc = rvc
	d.rEp[obj][off] = vc.ReadShared
	d.rIn[obj][off] = nil
}

// Store implements the FastTrack write rules.
func (d *Detector) Store(t vc.TID, in *ir.Instr, addr interp.Addr, _ int64) {
	ct := d.clock(t)
	e := ct.Epoch(t)
	d.Checks++
	obj, off := d.state(addr)

	w := d.wEp[obj][off]
	if w == e {
		return // SAME EPOCH
	}
	if w != vc.NoEpoch && !ct.LeqEpoch(w) {
		d.report(WriteWrite, addr, t, in, d.wIn[obj][off])
	}
	r := d.rEp[obj][off]
	switch {
	case r == vc.ReadShared:
		m := &d.meta[obj][off]
		if !m.rvc.Leq(ct) {
			d.report(ReadWrite, addr, t, in, nil)
		}
		// The write dominates: drop back to exclusive-read bottom.
		d.rEp[obj][off] = vc.NoEpoch
		d.freeVC(m.rvc)
		m.rvc = nil
	case r != vc.NoEpoch && !ct.LeqEpoch(r):
		d.report(ReadWrite, addr, t, in, d.rIn[obj][off])
	}
	d.wEp[obj][off] = e
	d.wIn[obj][off] = in
}

// lockSlack is the constant in the lock rows' budget: the rows and
// their table may hold lockSlack slots plus 4 per lock clock. It is
// large enough for a lock array past a large global table, as in
// xalan; a fabricated address, or a heap object far into a large heap,
// goes to the overflow map instead of sizing a row after it.
const lockSlack = 1024

// lockClock returns addr's lock clock L_m: nil when it was never
// released, unless create is set, in which case a bottom clock is made
// for it. A new clock goes in the rows when they can cover addr within
// the budget and in lockOv otherwise. lockOv is consulted first, so an
// address pinned there stays there and has one clock for the run.
func (d *Detector) lockClock(addr interp.Addr, create bool) *vc.VC {
	if len(d.lockOv) > 0 {
		if lm, ok := d.lockOv[addr]; ok {
			return lm
		}
	}
	obj, off := interp.DecodeAddr(addr)
	if obj < len(d.locks) && off < int64(len(d.locks[obj])) {
		lm := d.locks[obj][off]
		if lm == nil && create {
			lm = d.newVC()
			d.lockClocks++
			d.locks[obj][off] = lm
		}
		return lm
	}
	if !create {
		return nil
	}
	lm := d.newVC()
	d.lockClocks++
	budget := lockSlack + 4*d.lockClocks - d.lockSlots - max(obj+1-len(d.locks), 0)
	old := 0
	if obj < len(d.locks) {
		old = len(d.locks[obj])
	}
	// Grow the row to twice its length, or less when the budget is short.
	if n := min(max(int(off)+1, 2*old), old+budget); int64(n) > off {
		if obj >= len(d.locks) {
			// Rows past the length were truncated by reset; keep their capacity.
			d.lockSlots += obj + 1 - len(d.locks)
			d.locks = slices.Grow(d.locks, obj+1-len(d.locks))[:obj+1]
		}
		d.lockSlots += n - old
		d.locks[obj] = extend(d.locks[obj], n)
		d.locks[obj][off] = lm
		return lm
	}
	if d.lockOv == nil {
		d.lockOv = map[interp.Addr]*vc.VC{}
	}
	d.lockOv[addr] = lm
	return lm
}

// Lock implements acquire: C_t joins the lock's clock.
func (d *Detector) Lock(t vc.TID, _ *ir.Instr, addr interp.Addr) {
	if lm := d.lockClock(addr, false); lm != nil {
		d.clock(t).JoinWith(lm)
		d.refresh(t)
	}
}

// Unlock implements release: the lock's clock becomes C_t, which then
// advances.
func (d *Detector) Unlock(t vc.TID, _ *ir.Instr, addr interp.Addr) {
	ct := d.clock(t)
	d.lockClock(addr, true).Assign(ct)
	ct.Tick(t)
	d.refresh(t)
}

// Spawn implements fork: the child inherits the parent's clock.
func (d *Detector) Spawn(t vc.TID, _ *ir.Instr, child vc.TID, _ interp.FrameID, _ *ir.Function) {
	cc := d.clock(child)
	cc.JoinWith(d.clock(t))
	d.refresh(child)
	d.clock(t).Tick(t)
	d.refresh(t)
}

// Join implements join: the parent absorbs the child's clock.
func (d *Detector) Join(t vc.TID, _ *ir.Instr, child vc.TID) {
	d.clock(t).JoinWith(d.clock(child))
	d.refresh(t)
}

// Races returns the deduplicated races, ordered deterministically.
func (d *Detector) Races() []Race {
	keys := make([]Key, 0, len(d.races))
	for k := range d.races {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		if keys[i].B != keys[j].B {
			return keys[i].B < keys[j].B
		}
		return keys[i].Kind < keys[j].Kind
	})
	out := make([]Race, len(keys))
	for i, k := range keys {
		out[i] = d.races[k]
	}
	return out
}

// RaceKeys returns the deduplicated race keys (static pairs), the
// canonical form used to compare two detectors' findings.
func (d *Detector) RaceKeys() []Key { return Keys(d.Races()) }

// Keys returns the keys of races, in order: RaceKeys for a caller that
// already holds the sorted races.
func Keys(races []Race) []Key {
	out := make([]Key, len(races))
	for i, r := range races {
		out[i] = keyFor(r.Kind, r.Instr, r.Prev)
	}
	return out
}

// HasRaces reports whether any race was detected.
func (d *Detector) HasRaces() bool { return len(d.races) > 0 }

// RacyAddrs returns the sorted set of memory addresses on which races
// were detected. This is FastTrack's precision unit: the algorithm
// guarantees at least one reported race per variable that races in the
// observed execution, but *which* access pair gets attributed depends
// on the metadata state (exclusive vs READ_SHARED), which in turn
// depends on which provably-race-free accesses were instrumented — so
// cross-configuration equivalence is defined on racy addresses.
func (d *Detector) RacyAddrs() []interp.Addr {
	out := make([]interp.Addr, 0, len(d.racyAddrs))
	for a := range d.racyAddrs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
