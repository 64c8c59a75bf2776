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
// optimistic dynamic analyses speculative (§2.3): every likely
// invariant a detector's predicated static result read gets one cheap
// check, which raises the interpreter's Abort flag on violation — a
// flag test at a likely-unreachable block, a counter at a spawn site,
// an address comparison at a paired lock site, a set-inclusion test at
// an indirect call, one transition-table probe per context-extending
// call (§5.2.3), and a zero test at a used non-null load.

// checks are one optimistic detector's read-only check tables, one for
// each fact kind its predicated static result read; a nil table checks
// nothing of its kind. They depend only on (program, database, static
// result), so a detector builds them once and every run shares them.
type checks struct {
	// luc (unreachable-block) maps a block ID to "assumed unreachable".
	// It is also the speculative image's block mask: those blocks'
	// events are the only ones an optimistic run needs.
	luc []bool
	// callees (callee-set) maps an instruction ID to the likely callee
	// set of its indirect call or spawn (nil: no callee allowed).
	callees []*bitset.Set
	// spawnOnce (singleton-spawn) flags the assumed singleton spawn
	// sites.
	spawnOnce []bool
	// lockGroup (guarding-lock) maps a lock site to its guarding-lock
	// group (-1: none). Sites connected by must-alias pairs form a
	// group; every lock event at a grouped site must present the same
	// single runtime address for the whole group.
	lockGroup []int32
	ngroups   int
	// ctx (call-context) is the trie of the observed contexts; mainFn
	// roots a thread no spawn announced, and nfuncs sizes a context
	// stack's activation counts.
	ctx            *ctxTrie
	mainFn, nfuncs int
	// nonNull (non-null-load) flags the load sites whose likely
	// non-null fact the null proof used. It is also the speculative
	// image's memory mask: the loads the run must observe.
	nonNull []bool
}

// newChecks builds the tables of reads, the fact kinds a detector's
// predicated result read from db; used holds the non-null facts the
// null proof used. A database that assumes nothing of a kind checks
// nothing of it: a nil Callees map (the callee-set invariant switched
// off) builds no callee table. An elided-lock race has no table: OptFT
// checks for it once its run completes.
func newChecks(prog *ir.Program, db *invariants.DB, used *bitset.Set, reads ...ViolationKind) *checks {
	c := &checks{}
	for _, k := range reads {
		switch k {
		case ViolationUnreachableBlock:
			c.luc = make([]bool, len(prog.Blocks))
			for _, b := range prog.Blocks {
				c.luc[b.ID] = !db.Visited.Has(b.ID)
			}
		case ViolationCalleeSet:
			if db.Callees != nil {
				c.callees = make([]*bitset.Set, len(prog.Instrs))
				for site, set := range db.Callees {
					if site >= 0 && site < len(c.callees) {
						c.callees[site] = set
					}
				}
			}
		case ViolationSingletonSpawn:
			c.spawnOnce = siteFlags(prog, db.SingletonSpawns)
		case ViolationGuardingLock:
			c.lockGroup, c.ngroups = lockGroups(prog, db)
		case ViolationCallContext:
			c.ctx = newCtxTrie(db.Contexts.SortedPaths(), len(prog.Instrs))
			c.mainFn, c.nfuncs = prog.Main().ID, len(prog.Funcs)
		case ViolationNonNull:
			c.nonNull = siteFlags(prog, used)
		}
	}
	return c
}

// siteFlags returns the instruction-ID table flagging the sites in set.
func siteFlags(prog *ir.Program, set *bitset.Set) []bool {
	flags := make([]bool, len(prog.Instrs))
	set.ForEach(func(id int) bool {
		flags[id] = true
		return true
	})
	return flags
}

// lockGroups returns the guarding-lock group of every lock site (a
// union-find over db's must-alias pairs) and the number of groups.
func lockGroups(prog *ir.Program, db *invariants.DB) ([]int32, int) {
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
	group := make([]int32, len(prog.Instrs))
	for i := range group {
		group[i] = -1
	}
	groups := map[int]int32{} // root site -> dense group number
	for site := range parent {
		root := find(site)
		g, ok := groups[root]
		if !ok {
			g = int32(len(groups))
			groups[root] = g
		}
		group[site] = g
	}
	return group, len(groups)
}

// checker is one run's invariant checker over a detector's checks. Each
// handler runs the checks whose table exists; a client's tracer embeds
// it and adds its own analysis's events.
type checker struct {
	interp.NopTracer
	*checks
	checkState

	spawnCounts map[int]int   // made on the first singleton spawn
	groupAddr   []interp.Addr // by lock group; 0: no lock seen yet
	stacks      []*checkStack // context stacks, by TID
}

// newChecker starts one run's checker over c, with its own abort flag.
func (c *checks) newChecker() *checker {
	return &checker{checks: c, checkState: checkState{abort: &interp.Abort{}}}
}

// BlockEnter fires the likely-unreachable-code check.
func (c *checker) BlockEnter(_ vc.TID, b *ir.Block) {
	if c.luc == nil {
		return
	}
	c.Events++
	if c.luc[b.ID] {
		c.violate(Violation{Kind: ViolationUnreachableBlock, Site: b.ID, Callee: -1})
	}
}

// Call fires the likely-callee-set check at an indirect call and the
// call-context check at a context-extending one.
func (c *checker) Call(t vc.TID, in *ir.Instr, callee *ir.Function, _, _ interp.FrameID) {
	c.checkCallee(in, callee)
	if c.ctx == nil {
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

// Spawn fires the likely-callee-set check at an indirect spawn and the
// likely-singleton-thread check, and begins the child's thread-root
// context: the parent's context extended by the spawn site.
func (c *checker) Spawn(t vc.TID, in *ir.Instr, child vc.TID, _ interp.FrameID, callee *ir.Function) {
	c.checkCallee(in, callee)
	if c.spawnOnce != nil {
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
	if c.ctx != nil {
		p := c.stack(t)
		c.setStack(child, c.newStack(callee.ID, c.enter(p.states[len(p.states)-1], in.ID)))
	}
}

// Ret unwinds the context stack. A thread's root state stays: nothing
// runs on the thread after its root returns.
func (c *checker) Ret(t vc.TID, _ *ir.Instr, _, _ interp.FrameID, _ *ir.Var) {
	if c.ctx == nil {
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

// Lock fires the likely-guarding-locks check. A locked address is
// always a pointer, never 0, so 0 marks a group with no lock seen yet.
func (c *checker) Lock(_ vc.TID, in *ir.Instr, addr interp.Addr) {
	if c.lockGroup == nil {
		return
	}
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

// Load fires the non-null-fact check: the memory mask delivers load
// events exactly at the used fact sites.
func (c *checker) Load(_ vc.TID, in *ir.Instr, _ interp.Addr, v int64) {
	if c.nonNull == nil {
		return
	}
	c.Events++
	if v == 0 && c.nonNull[in.ID] {
		c.violate(Violation{Kind: ViolationNonNull, Site: in.ID, Callee: -1})
	}
}

// NilDeref fires the non-null-fact check at a residual check: a nil
// address at a fact-covered load refutes that fact (the recovered load
// produced 0).
func (c *checker) NilDeref(_ vc.TID, in *ir.Instr) {
	if c.nonNull != nil && c.nonNull[in.ID] {
		c.Events++
		c.violate(Violation{Kind: ViolationNonNull, Site: in.ID, Callee: -1})
	}
}

// checkCallee fires the likely-callee-set check at an indirect site.
func (c *checker) checkCallee(in *ir.Instr, callee *ir.Function) {
	if c.callees == nil || !in.IsIndirect() {
		return
	}
	c.Events++
	if set := c.callees[in.ID]; set == nil || !set.Has(callee.ID) {
		c.violate(Violation{Kind: ViolationCalleeSet, Site: in.ID, Callee: callee.ID, Detail: callee.Name})
	}
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

// newStack returns a context stack rooted at fnID in trie state st.
func (c *checker) newStack(fnID int, st int32) *checkStack {
	s := &checkStack{active: make([]int32, c.nfuncs)}
	s.frames = append(s.frames, checkFrame{fnID: fnID, extended: true})
	s.active[fnID] = 1
	s.states = append(s.states, st)
	return s
}

// setStack installs s as thread t's context stack.
func (c *checker) setStack(t vc.TID, s *checkStack) {
	for int(t) >= len(c.stacks) {
		c.stacks = append(c.stacks, nil)
	}
	c.stacks[t] = s
}

func (c *checker) stack(t vc.TID) *checkStack {
	if int(t) < len(c.stacks) && c.stacks[t] != nil {
		return c.stacks[t]
	}
	s := c.newStack(c.mainFn, 0)
	c.setStack(t, s)
	return s
}

// enter checks the context that extending state from by site enters,
// and returns its state.
func (c *checker) enter(from int32, site int) int32 {
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
