package core

import (
	"slices"

	"oha/internal/bitset"
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
// indirect call, and one transition-table probe per context-extending
// call for call contexts (§5.2.3).

// raceTables are the OptFT checker's read-only tables. They depend
// only on (program, invariant database), so an OptFT builds them once
// and every run shares them.
type raceTables struct {
	luc       []bool // block ID -> assumed unreachable
	spawnOnce []bool // instr ID -> assumed singleton spawn site
	// lockGroup maps a lock site to its guarding-lock group (-1: none).
	// Sites connected by must-alias pairs form a group; every lock event
	// at a grouped site must present the same single runtime address for
	// the whole group.
	lockGroup []int32
	ngroups   int
	callees   calleeTable // nil: callee invariant disabled
}

func newRaceTables(prog *ir.Program, db *invariants.DB) *raceTables {
	t := &raceTables{
		luc:       lucTable(prog, db),
		spawnOnce: make([]bool, len(prog.Instrs)),
		lockGroup: make([]int32, len(prog.Instrs)),
	}
	// The predicated points-to wires an indirect call or spawn only to
	// its likely callees, so a database with callee facts assumes them
	// and the checker verifies them; one without assumes and checks none.
	if db.Callees != nil {
		t.callees = newCalleeTable(prog, db)
	}
	db.SingletonSpawns.ForEach(func(id int) bool {
		t.spawnOnce[id] = true
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
	for i := range t.lockGroup {
		t.lockGroup[i] = -1
	}
	groups := map[int]int32{} // root site -> dense group number
	for site := range parent {
		root := find(site)
		g, ok := groups[root]
		if !ok {
			g = int32(len(groups))
			groups[root] = g
		}
		t.lockGroup[site] = g
	}
	t.ngroups = len(groups)
	return t
}

// raceChecker verifies the OptFT invariants: likely-unreachable code,
// likely singleton threads, likely guarding locks, and likely callee
// sets. (No custom synchronization is verified by the race detector
// itself: any race report while locks are elided is treated as a
// potential mis-speculation.) It holds one run's state over shared
// tables.
type raceChecker struct {
	interp.NopTracer
	*raceTables
	checkState

	spawnCounts map[int]int   // made on the first singleton spawn
	groupAddr   []interp.Addr // by lock group; 0: no lock seen yet
}

// newChecker starts one run's checker over t.
func (t *raceTables) newChecker(abort *interp.Abort) *raceChecker {
	return &raceChecker{raceTables: t, checkState: checkState{abort: abort}}
}

// BlockEnter fires the likely-unreachable-code check.
func (c *raceChecker) BlockEnter(_ vc.TID, b *ir.Block) {
	c.Events++
	if c.luc[b.ID] {
		c.violate(Violation{Kind: ViolationUnreachableBlock, Site: b.ID, Callee: -1})
	}
}

// Call fires the likely-callee-set check at indirect sites.
func (c *raceChecker) Call(_ vc.TID, in *ir.Instr, callee *ir.Function, _, _ interp.FrameID) {
	if in.IsIndirect() {
		c.callees.check(&c.checkState, in, callee)
	}
}

// Spawn fires the likely-singleton-thread check, and the callee-set
// check at an indirect spawn.
func (c *raceChecker) Spawn(_ vc.TID, in *ir.Instr, _ vc.TID, _ interp.FrameID, callee *ir.Function) {
	if in.IsIndirect() {
		c.callees.check(&c.checkState, in, callee)
	}
	c.Events++
	if c.spawnOnce[in.ID] {
		if c.spawnCounts == nil {
			c.spawnCounts = map[int]int{}
		}
		c.spawnCounts[in.ID]++
		if c.spawnCounts[in.ID] > 1 {
			c.violate(Violation{Kind: ViolationSingletonSpawn, Site: in.ID, Callee: -1})
		}
	}
}

// Lock fires the likely-guarding-locks check. A locked address is
// always a pointer, never 0, so 0 marks a group with no lock seen yet.
func (c *raceChecker) Lock(_ vc.TID, in *ir.Instr, addr interp.Addr) {
	g := c.lockGroup[in.ID]
	if g < 0 {
		return
	}
	c.Events++
	if c.groupAddr == nil {
		c.groupAddr = make([]interp.Addr, c.ngroups)
	}
	if prev := c.groupAddr[g]; prev != 0 {
		if prev != addr {
			c.violate(Violation{Kind: ViolationGuardingLock, Site: in.ID, Callee: -1})
		}
		return
	}
	c.groupAddr[g] = addr
}

// lucTable returns the likely-unreachable-code table: block ID ->
// assumed unreachable. Every checker reads it, and it is also the block
// mask of every speculative image: those blocks' events are the only
// ones an optimistic run needs.
func lucTable(prog *ir.Program, db *invariants.DB) []bool {
	luc := make([]bool, len(prog.Blocks))
	for _, b := range prog.Blocks {
		luc[b.ID] = db.LikelyUnreachable(b.ID)
	}
	return luc
}

// calleeTable maps an instruction ID to the likely callee set of its
// indirect call or spawn (nil: no callee allowed).
type calleeTable []*bitset.Set

func newCalleeTable(prog *ir.Program, db *invariants.DB) calleeTable {
	t := make(calleeTable, len(prog.Instrs))
	for site, set := range db.Callees {
		if site >= 0 && site < len(t) {
			t[site] = set
		}
	}
	return t
}

// check fires the likely-callee-set check at an indirect site (a nil
// table checks nothing).
func (t calleeTable) check(c *checkState, in *ir.Instr, callee *ir.Function) {
	if t == nil {
		return
	}
	c.Events++
	if set := t[in.ID]; set == nil || !set.Has(callee.ID) {
		c.violate(Violation{Kind: ViolationCalleeSet, Site: in.ID, Callee: callee.ID, Detail: callee.Name})
	}
}

// sliceTables are the OptSlice checker's read-only tables. They depend
// only on (program, invariant database), so an OptSlice builds them
// once and every run shares them.
type sliceTables struct {
	mainFn  int
	nfuncs  int
	luc     []bool // block ID -> assumed unreachable
	callees calleeTable
	// checkCtx enables the call-context check over ctx, the trie of the
	// observed contexts.
	checkCtx bool
	ctx      *ctxTrie
}

func newSliceTables(prog *ir.Program, db *invariants.DB, checkContexts bool) *sliceTables {
	t := &sliceTables{
		mainFn:   prog.Main().ID,
		nfuncs:   len(prog.Funcs),
		luc:      lucTable(prog, db),
		callees:  newCalleeTable(prog, db),
		checkCtx: checkContexts,
	}
	if checkContexts {
		t.ctx = newCtxTrie(db.Contexts.SortedPaths(), len(prog.Instrs))
	}
	return t
}

// ctxTrie is the exact automaton of a set of call contexts. State 0 is
// the empty context; every other state is a path of call sites, reached
// from its parent state by its last site. A state exists for every
// prefix of a context, and member marks the contexts themselves: the
// set need not be prefix-closed. -1 stands for every path with no
// state, none of which is a member, and stays -1 under extension.
type ctxTrie struct {
	parent []int32 // state -> parent state (-1 for the empty context)
	site   []int32 // state -> last call site (-1 for the empty context)
	member []bool  // state -> the path is an observed context
	// keys/children are an open-addressed (linear probing) table of the
	// transitions: key (parent+1)<<32 | site, 0 marking a free slot.
	keys     []uint64
	children []int32
	shift    uint8 // 64 - log2(len(keys))
}

// newCtxTrie builds the trie of paths over call sites [0, nsites).
// A path naming any other site can never be observed at run time, so
// dropping it is exact.
func newCtxTrie(paths [][]int, nsites int) *ctxTrie {
	tr := &ctxTrie{parent: []int32{-1}, site: []int32{-1}, member: []bool{false}}
	// At most n-1 transitions: a table of 2n slots or more is at most
	// half full, so every probe ends at a free slot.
	n := 1
	for _, p := range paths {
		n += len(p)
	}
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	tr.keys = make([]uint64, 1<<bits)
	tr.children = make([]int32, 1<<bits)
	tr.shift = uint8(64 - bits)
pathLoop:
	for _, p := range paths {
		for _, s := range p {
			if s < 0 || s >= nsites {
				continue pathLoop
			}
		}
		st := int32(0)
		for _, s := range p {
			i, found := tr.slot(st, s)
			if !found {
				tr.keys[i] = ctxKey(st, s)
				tr.children[i] = int32(len(tr.parent))
				tr.parent = append(tr.parent, st)
				tr.site = append(tr.site, int32(s))
				tr.member = append(tr.member, false)
			}
			st = tr.children[i]
		}
		tr.member[st] = true
	}
	return tr
}

func ctxKey(st int32, site int) uint64 { return uint64(st+1)<<32 | uint64(uint32(site)) }

// slot returns the table slot of transition (st, site): the slot
// holding it, or the free slot where it would go.
func (tr *ctxTrie) slot(st int32, site int) (int, bool) {
	k := ctxKey(st, site)
	mask := len(tr.keys) - 1
	for i := int(k * 0x9e3779b97f4a7c15 >> tr.shift); ; i = (i + 1) & mask {
		switch tr.keys[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// next returns the state of st's path extended by site.
func (tr *ctxTrie) next(st int32, site int) int32 {
	if st < 0 {
		return -1
	}
	if i, ok := tr.slot(st, site); ok {
		return tr.children[i]
	}
	return -1
}

// known reports whether st is an observed context.
func (tr *ctxTrie) known(st int32) bool { return st >= 0 && tr.member[st] }

// path returns the sites of st's path extended by site (st >= 0).
func (tr *ctxTrie) path(st int32, site int) []int {
	out := []int{site}
	for ; st > 0; st = tr.parent[st] {
		out = append(out, int(tr.site[st]))
	}
	slices.Reverse(out)
	return out
}

// sliceChecker verifies the OptSlice invariants: likely-unreachable
// code, likely callee sets, and likely unused call contexts. It holds
// one run's state over shared tables.
type sliceChecker struct {
	*sliceTables
	checkState
	stacks []*checkStack // by TID
}

// checkStack mirrors the profiler's acyclic context-tracking stack,
// with the trie state of each extended frame's context.
type checkStack struct {
	frames []checkFrame
	active []int32 // fn ID -> activations on the stack
	states []int32 // trie state per extended frame
}

type checkFrame struct {
	fnID     int
	extended bool
}

// newChecker starts one run's checker over t.
func (t *sliceTables) newChecker(abort *interp.Abort) *sliceChecker {
	return &sliceChecker{sliceTables: t, checkState: checkState{abort: abort}}
}

// newStack returns a context stack rooted at fnID in trie state st.
func (c *sliceChecker) newStack(fnID int, st int32) *checkStack {
	s := &checkStack{active: make([]int32, c.nfuncs)}
	s.frames = append(s.frames, checkFrame{fnID: fnID, extended: true})
	s.active[fnID] = 1
	s.states = append(s.states, st)
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
	s := c.newStack(c.mainFn, 0)
	c.setStack(t, s)
	return s
}

// enter checks the context that extending state from by site enters,
// and returns its state.
func (c *sliceChecker) enter(from int32, site int) int32 {
	st := c.ctx.next(from, site)
	c.Events++
	if !c.ctx.known(st) {
		v := Violation{Kind: ViolationCallContext, Site: site, Callee: -1}
		// Only the first violation is reported. Every context entered
		// before it was known, so from is a state of the trie.
		if !c.abort.IsSet() {
			v.Path = c.ctx.path(from, site)
		}
		c.violate(v)
	}
	return st
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
		c.callees.check(&c.checkState, in, callee)
	}
	if !c.checkCtx {
		return
	}
	s := c.stack(t)
	fr := checkFrame{fnID: callee.ID}
	if s.active[callee.ID] == 0 {
		fr.extended = true
		s.states = append(s.states, c.enter(s.states[len(s.states)-1], in.ID))
	}
	s.active[callee.ID]++
	s.frames = append(s.frames, fr)
}

// Spawn begins a new thread-root context: the parent's context
// extended by the spawn site.
func (c *sliceChecker) Spawn(t vc.TID, in *ir.Instr, child vc.TID, callee *ir.Function) {
	if in.IsIndirect() {
		c.callees.check(&c.checkState, in, callee)
	}
	if !c.checkCtx {
		return
	}
	p := c.stack(t)
	c.setStack(child, c.newStack(callee.ID, c.enter(p.states[len(p.states)-1], in.ID)))
}

// Ret unwinds the context stack. A thread's root state stays: nothing
// runs on the thread after its root returns.
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
	if fr.extended && len(s.states) > 1 {
		s.states = s.states[:len(s.states)-1]
	}
}
