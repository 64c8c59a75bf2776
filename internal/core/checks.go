package core

import (
	"oha/internal/bitset"
	"oha/internal/bloom"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/vc"
)

// This file implements the runtime invariant checks that make the
// optimistic dynamic analyses speculative: each check verifies one
// likely-invariant kind and raises the interpreter's Abort flag on
// violation (§2.3). The checks are deliberately cheap — a flag test at
// a likely-unreachable block, a counter at a spawn site, an address
// comparison at a paired lock site, a set-inclusion test at an
// indirect call, and a Bloom-filter-guarded stack check for call
// contexts (§5.2.3).

// raceChecker verifies the OptFT invariants: likely-unreachable code,
// likely singleton threads, and likely guarding locks. (No custom
// synchronization is verified by the race detector itself: any race
// report while locks are elided is treated as a potential
// mis-speculation.)
type raceChecker struct {
	interp.NopTracer
	checkState

	luc         []bool // block ID -> assumed unreachable
	spawnOnce   []bool // instr ID -> assumed singleton spawn site
	spawnCounts map[int]int

	// Guarding-lock verification: sites connected by must-alias pairs
	// form groups; every lock event at a grouped site must present the
	// same single runtime address for the whole group.
	lockGroup map[int]int // lock site -> group id
	groupAddr map[int]interp.Addr
}

// newRaceChecker builds the checker for a database. prog supplies site
// tables.
func newRaceChecker(prog *ir.Program, db *invariants.DB, abort *interp.Abort) *raceChecker {
	c := &raceChecker{
		checkState:  checkState{abort: abort},
		luc:         make([]bool, len(prog.Blocks)),
		spawnOnce:   make([]bool, len(prog.Instrs)),
		spawnCounts: map[int]int{},
		lockGroup:   map[int]int{},
		groupAddr:   map[int]interp.Addr{},
	}
	for _, b := range prog.Blocks {
		c.luc[b.ID] = db.LikelyUnreachable(b.ID)
	}
	db.SingletonSpawns.ForEach(func(id int) bool {
		c.spawnOnce[id] = true
		return true
	})
	// Union-find over must-alias pairs to form lock groups.
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for pair := range db.MustAliasLocks {
		ra, rb := find(pair.A), find(pair.B)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for site := range parent {
		c.lockGroup[site] = find(site)
	}
	return c
}

// BlockEnter fires the likely-unreachable-code check.
func (c *raceChecker) BlockEnter(_ vc.TID, b *ir.Block) {
	c.Events++
	if c.luc[b.ID] {
		c.violate(Violation{Kind: ViolationUnreachableBlock, Site: b.ID, Callee: -1})
	}
}

// Spawn fires the likely-singleton-thread check.
func (c *raceChecker) Spawn(_ vc.TID, in *ir.Instr, _ vc.TID, _ interp.FrameID, _ *ir.Function) {
	c.Events++
	if c.spawnOnce[in.ID] {
		c.spawnCounts[in.ID]++
		if c.spawnCounts[in.ID] > 1 {
			c.violate(Violation{Kind: ViolationSingletonSpawn, Site: in.ID, Callee: -1})
		}
	}
}

// Lock fires the likely-guarding-locks check.
func (c *raceChecker) Lock(_ vc.TID, in *ir.Instr, addr interp.Addr) {
	g, ok := c.lockGroup[in.ID]
	if !ok {
		return
	}
	c.Events++
	if prev, seen := c.groupAddr[g]; seen {
		if prev != addr {
			c.violate(Violation{Kind: ViolationGuardingLock, Site: in.ID, Callee: -1})
		}
		return
	}
	c.groupAddr[g] = addr
}

// checkedBlockMask returns the BlockMask delivering exactly the
// likely-unreachable blocks (the only block events the optimistic run
// needs).
func checkedBlockMask(prog *ir.Program, db *invariants.DB) []bool {
	mask := make([]bool, len(prog.Blocks))
	for _, b := range prog.Blocks {
		if db.LikelyUnreachable(b.ID) {
			mask[b.ID] = true
		}
	}
	return mask
}

// sliceTables are the OptSlice checker's read-only tables. They depend
// only on (program, invariant database), so an OptSlice builds them
// once and every run shares them.
type sliceTables struct {
	mainFn  int
	nfuncs  int
	luc     []bool        // block ID -> assumed unreachable
	callees []*bitset.Set // instr ID -> allowed callee fn IDs (nil: none)
	// checkCtx enables the call-context check; ctxHashes/ctxBloom hold
	// the observed contexts' hashes and their Bloom prefilter.
	checkCtx  bool
	ctxHashes map[uint64]bool
	ctxBloom  *bloom.Filter
}

func newSliceTables(prog *ir.Program, db *invariants.DB, checkContexts bool) *sliceTables {
	t := &sliceTables{
		mainFn:   prog.Main().ID,
		nfuncs:   len(prog.Funcs),
		luc:      make([]bool, len(prog.Blocks)),
		callees:  make([]*bitset.Set, len(prog.Instrs)),
		checkCtx: checkContexts,
	}
	for _, b := range prog.Blocks {
		t.luc[b.ID] = db.LikelyUnreachable(b.ID)
	}
	for site, set := range db.Callees {
		if site >= 0 && site < len(t.callees) {
			t.callees[site] = set
		}
	}
	if checkContexts {
		t.ctxHashes = db.Contexts.HashSet()
		t.ctxBloom = db.Contexts.Bloom(0.01)
	}
	return t
}

// sliceChecker verifies the OptSlice invariants: likely-unreachable
// code, likely callee sets, and likely unused call contexts. It holds
// one run's state over shared tables.
type sliceChecker struct {
	*sliceTables
	checkState
	// bloom is the run's context prefilter: the tables' filter, or nil
	// for hash-set lookups only (the NoBloom ablation).
	bloom  *bloom.Filter
	stacks []*checkStack // by TID
}

// checkStack mirrors the profiler's acyclic context-tracking stack,
// with incremental hashes for the Bloom fast path.
type checkStack struct {
	frames []checkFrame
	active []int32 // fn ID -> activations on the stack
	path   []int
	hashes []uint64 // hash prefix per extended frame
}

type checkFrame struct {
	fnID     int
	extended bool
}

// newChecker starts one run's checker over t. noBloom switches the
// call-context check to exact set inclusion only — the configuration
// the paper found "too inefficient for some programs" (§5.2.3); kept
// for the ablation benchmarks.
func (t *sliceTables) newChecker(abort *interp.Abort, noBloom bool) *sliceChecker {
	c := &sliceChecker{sliceTables: t, checkState: checkState{abort: abort}, bloom: t.ctxBloom}
	if noBloom {
		c.bloom = nil
	}
	return c
}

// newStack returns an empty context stack rooted at fnID.
func (c *sliceChecker) newStack(fnID int, h uint64) *checkStack {
	s := &checkStack{active: make([]int32, c.nfuncs)}
	s.frames = append(s.frames, checkFrame{fnID: fnID, extended: true})
	s.active[fnID] = 1
	s.hashes = append(s.hashes, h)
	return s
}

// setStack installs s as thread t's context stack.
func (c *sliceChecker) setStack(t vc.TID, s *checkStack) {
	for int(t) >= len(c.stacks) {
		c.stacks = append(c.stacks, nil)
	}
	c.stacks[t] = s
}

func (c *sliceChecker) stack(t vc.TID) *checkStack {
	if int(t) < len(c.stacks) && c.stacks[t] != nil {
		return c.stacks[t]
	}
	s := c.newStack(c.mainFn, invariants.EmptyContextHash)
	c.setStack(t, s)
	return s
}

// knownContext reports whether h is an observed context hash: Bloom
// prefilter, then the hash-set membership test.
func (c *sliceChecker) knownContext(h uint64) bool {
	return (c.bloom == nil || c.bloom.MayContain(h)) && c.ctxHashes[h]
}

// checkCallee fires the likely-callee-set check at an indirect site.
func (c *sliceChecker) checkCallee(in *ir.Instr, callee *ir.Function) {
	c.Events++
	if set := c.callees[in.ID]; set == nil || !set.Has(callee.ID) {
		c.violate(Violation{Kind: ViolationCalleeSet, Site: in.ID, Callee: callee.ID, Detail: callee.Name})
	}
}

// BlockEnter fires the likely-unreachable-code check.
func (c *sliceChecker) BlockEnter(_ vc.TID, b *ir.Block) {
	c.Events++
	if c.luc[b.ID] {
		c.violate(Violation{Kind: ViolationUnreachableBlock, Site: b.ID, Callee: -1})
	}
}

// Call fires the likely-callee-set and call-context checks.
func (c *sliceChecker) Call(t vc.TID, in *ir.Instr, callee *ir.Function) {
	if in.IsIndirect() {
		c.checkCallee(in, callee)
	}
	if !c.checkCtx {
		return
	}
	s := c.stack(t)
	fr := checkFrame{fnID: callee.ID}
	if s.active[callee.ID] == 0 {
		fr.extended = true
		s.path = append(s.path, in.ID)
		h := invariants.HashExtend(s.hashes[len(s.hashes)-1], in.ID)
		s.hashes = append(s.hashes, h)
		c.Events++
		if !c.knownContext(h) {
			c.violate(Violation{
				Kind: ViolationCallContext, Site: in.ID, Callee: -1,
				Path: append([]int(nil), s.path...),
			})
		}
	}
	s.active[callee.ID]++
	s.frames = append(s.frames, fr)
}

// Spawn begins a new thread-root context.
func (c *sliceChecker) Spawn(t vc.TID, in *ir.Instr, child vc.TID, callee *ir.Function) {
	if in.IsIndirect() {
		c.checkCallee(in, callee)
	}
	if !c.checkCtx {
		return
	}
	path := append(append([]int(nil), c.stack(t).path...), in.ID)
	h := invariants.HashContext(path)
	s := c.newStack(callee.ID, h)
	s.path = path
	c.Events++
	if !c.knownContext(h) {
		c.violate(Violation{
			Kind: ViolationCallContext, Site: in.ID, Callee: -1,
			Path: append([]int(nil), s.path...),
		})
	}
	c.setStack(child, s)
}

// Ret unwinds the context stack.
func (c *sliceChecker) Ret(t vc.TID) {
	if !c.checkCtx {
		return
	}
	s := c.stack(t)
	if len(s.frames) == 0 {
		return
	}
	fr := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.active[fr.fnID]--
	if fr.extended && len(s.path) > 0 {
		s.path = s.path[:len(s.path)-1]
		s.hashes = s.hashes[:len(s.hashes)-1]
	}
}
