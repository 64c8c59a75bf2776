// Package profile implements the likely-invariant profiling passes —
// phase one of optimistic hybrid analysis (§2.1, §4.2, §5.2).
//
// A Collector subscribes to interpreter events during a profiling
// execution and gathers the raw observations (visited blocks, lock
// objects per site, spawn counts, indirect-call targets, call
// contexts); Summarize converts one run's observations into a
// per-run invariant database, and invariants.Merge folds databases
// from many runs into the final likely-invariant set.
//
// The no-custom-synchronization invariant is not profiled here: core's
// profiling entry points set it to the lock sites the predicated
// static race analysis proposes to elide, and a speculative run
// validates it (a race reported while they are elided rolls back).
package profile

import (
	"context"
	"slices"

	"oha/internal/bitset"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/sched"
	"oha/internal/vc"
)

// Collector gathers raw profiling observations from one execution.
// Install it as the interpreter's Tracer under Masks(prog), which
// flags exactly the events it reads; a run with more events flagged
// (all masks nil, say) yields the same observations.
//
// Its per-run state is flat: per-site and per-thread tables indexed by
// instruction, function and thread ID, and a trie interning the call
// contexts, so a context-extending call costs one trie step and builds
// no key.
type Collector struct {
	interp.NopTracer
	prog *ir.Program
	// fast is this run's fast-path descriptor; fast.Blocks is the
	// run's block coverage, by block ID.
	fast interp.FastState

	zeroLoads   *bitset.Set // load sites observed producing 0
	spawnCounts []int32     // by spawn-site instr ID (nil until the first spawn)
	locks       []lockSite  // by lock-site instr ID (nil until the first lock)
	callees     map[int]*bitset.Set
	trie        ctxTrie
	rootSeen    bool        // some thread ran with the empty context
	stacks      []*ctxStack // by TID
}

// lockSite is what Summarize needs of the objects one lock site
// locked: whether it locked exactly one dynamic object, and which.
type lockSite struct {
	obj  interp.Addr
	objs uint8 // distinct objects locked, saturating at 2
}

// ctxTrie interns call contexts: node n is the context of node
// parent[n] extended by call or spawn site site[n]. Node 0 is the
// empty context.
type ctxTrie struct {
	parent []int32
	site   []int32
	child  map[uint64]int32 // (parent node, site) -> node
}

// extend returns the node of node's context extended by site,
// interning it on first use.
func (t *ctxTrie) extend(node int32, site int) int32 {
	k := uint64(node)<<32 | uint64(uint32(site))
	if n, ok := t.child[k]; ok {
		return n
	}
	n := int32(len(t.parent))
	t.parent = append(t.parent, node)
	t.site = append(t.site, int32(site))
	t.child[k] = n
	return n
}

// appendPath appends node's context, root first, to buf.
func (t *ctxTrie) appendPath(buf []int, node int32) []int {
	start := len(buf)
	for ; node != 0; node = t.parent[node] {
		buf = append(buf, int(t.site[node]))
	}
	slices.Reverse(buf[start:])
	return buf
}

// ctxFrame mirrors one activation for context tracking.
type ctxFrame struct {
	fnID     int32
	extended bool // this activation extended the acyclic context path
}

// ctxStack is the per-thread analysis stack.
type ctxStack struct {
	frames []ctxFrame
	active []int32 // by function ID: activations on the stack
	node   int32   // trie node of the acyclic context path
}

// NewCollector returns a collector for one profiling run of prog.
func NewCollector(prog *ir.Program) *Collector {
	return &Collector{
		prog:      prog,
		fast:      interp.FastState{Kind: interp.FastNull, Blocks: make([]bool, len(prog.Blocks))},
		zeroLoads: &bitset.Set{},
		callees:   map[int]*bitset.Set{},
		trie:      ctxTrie{parent: []int32{0}, site: []int32{-1}, child: map[uint64]int32{}},
	}
}

// Masks returns the instrumentation masks of a profiling run of prog:
// exactly the events the collector reads. Loads (the zero test) and
// locks fire at their sites, every block entry fires, and calls,
// returns and spawns are never masked; stores and unlocks fire
// nothing.
func Masks(prog *ir.Program) interp.Masks {
	mem := make([]bool, len(prog.Instrs))
	sync := make([]bool, len(prog.Instrs))
	for _, in := range prog.Instrs {
		switch in.Op {
		case ir.OpLoad:
			mem[in.ID] = true
		case ir.OpLock:
			sync[in.ID] = true
		}
	}
	return interp.Masks{Mem: mem, Sync: sync}
}

// FastState implements interp.FastTracer with a descriptor private to
// this run. Profiling's Load handler is a pure zero-test (the shape
// the engine's FastNull inline path assumes), so the engine settles
// every non-nil load inline; and BlockEnter only marks the block
// entered, so the engine marks the run's coverage row (Blocks) itself
// instead of calling it. The collector's other events are unaffected.
func (c *Collector) FastState() *interp.FastState { return &c.fast }

// newStack returns a thread stack rooted at function fnID with context
// node.
func (c *Collector) newStack(fnID int, node int32) *ctxStack {
	s := &ctxStack{active: make([]int32, len(c.prog.Funcs)), node: node}
	s.frames = append(s.frames, ctxFrame{fnID: int32(fnID), extended: true})
	s.active[fnID] = 1
	return s
}

// setStack installs s as thread t's stack.
func (c *Collector) setStack(t vc.TID, s *ctxStack) {
	for int(t) >= len(c.stacks) {
		c.stacks = append(c.stacks, nil)
	}
	c.stacks[t] = s
}

// stack returns (creating on first use) the context stack of thread t.
// Thread 0's root is main with the empty context.
func (c *Collector) stack(t vc.TID) *ctxStack {
	if int(t) < len(c.stacks) && c.stacks[t] != nil {
		return c.stacks[t]
	}
	s := c.newStack(c.prog.Main().ID, 0)
	c.rootSeen = true
	c.setStack(t, s)
	return s
}

// BlockEnter implements interp.Tracer: basic-block coverage for the
// likely-unreachable-code invariant. With the fast path armed the
// engine stores into the same row instead of calling it.
func (c *Collector) BlockEnter(_ vc.TID, b *ir.Block) {
	c.fast.Blocks[b.ID] = true
}

// Load implements interp.Tracer: records load sites observed producing
// 0 (the likely-non-null-loads invariant assumes the complement).
func (c *Collector) Load(_ vc.TID, in *ir.Instr, _ interp.Addr, val int64) {
	if val == 0 {
		c.zeroLoads.Add(in.ID)
	}
}

// Lock implements interp.Tracer: records the dynamic object locked at
// each lock site (likely guarding locks).
func (c *Collector) Lock(_ vc.TID, in *ir.Instr, addr interp.Addr) {
	if c.locks == nil {
		c.locks = make([]lockSite, len(c.prog.Instrs))
	}
	ls := &c.locks[in.ID]
	switch {
	case ls.objs == 0:
		ls.obj, ls.objs = addr, 1
	case ls.obj != addr:
		ls.objs = 2
	}
}

// Spawn implements interp.Tracer: spawn-site instance counting (likely
// singleton threads), indirect-spawn targets, and context roots for
// spawned threads.
func (c *Collector) Spawn(t vc.TID, in *ir.Instr, child vc.TID, _ interp.FrameID, callee *ir.Function) {
	if c.spawnCounts == nil {
		c.spawnCounts = make([]int32, len(c.prog.Instrs))
	}
	c.spawnCounts[in.ID]++
	if in.IsIndirect() {
		c.addCallee(in.ID, callee.ID)
	}
	// Child context: parent's path extended by the spawn site.
	node := c.trie.extend(c.stack(t).node, in.ID)
	c.setStack(child, c.newStack(callee.ID, node))
}

// Call implements interp.Tracer: indirect-call target sets (likely
// callee sets) and call-context tracking (likely unused call
// contexts). Only the first activation of a function on a thread's
// stack extends the context path.
func (c *Collector) Call(t vc.TID, in *ir.Instr, callee *ir.Function, _, _ interp.FrameID) {
	if in.IsIndirect() {
		c.addCallee(in.ID, callee.ID)
	}
	s := c.stack(t)
	fr := ctxFrame{fnID: int32(callee.ID)}
	if s.active[callee.ID] == 0 {
		fr.extended = true
		s.node = c.trie.extend(s.node, in.ID)
	}
	s.active[callee.ID]++
	s.frames = append(s.frames, fr)
}

// Ret implements interp.Tracer: pops the returning activation, and
// with it the path step it added.
func (c *Collector) Ret(t vc.TID, _ *ir.Instr, _, _ interp.FrameID, _ *ir.Var) {
	s := c.stack(t)
	if len(s.frames) == 0 {
		return
	}
	fr := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.active[fr.fnID]--
	if fr.extended && s.node != 0 {
		s.node = c.trie.parent[s.node]
	}
}

func (c *Collector) addCallee(site, fnID int) {
	if fnID < 0 {
		return
	}
	s := c.callees[site]
	if s == nil {
		s = &bitset.Set{}
		c.callees[site] = s
	}
	s.Add(fnID)
}

// Summarize converts the raw observations of one run into that run's
// invariant database.
func (c *Collector) Summarize() *invariants.DB {
	db := invariants.NewDB()
	for id, entered := range c.fast.Blocks {
		if entered {
			db.Visited.Add(id)
		}
	}

	// Likely guarding locks: pairs of sites that each locked exactly
	// one dynamic object, the same one.
	var singles []int // lock-site IDs, ascending
	for site, ls := range c.locks {
		if ls.objs == 1 {
			singles = append(singles, site)
		}
	}
	for i, a := range singles {
		// A single-object site must-aliases itself (required for even
		// self-pair lockset pruning: polymorphic sites do not).
		db.MustAliasLocks[invariants.NormPair(a, a)] = true
		for _, b := range singles[i+1:] {
			if c.locks[a].obj == c.locks[b].obj {
				db.MustAliasLocks[invariants.NormPair(a, b)] = true
			}
		}
	}

	// Likely singleton threads: every spawn site that created at most
	// one thread this run (sites that did not run count as ≤ 1).
	for _, in := range c.prog.Instrs {
		if in.Op == ir.OpSpawn && (c.spawnCounts == nil || c.spawnCounts[in.ID] <= 1) {
			db.SingletonSpawns.Add(in.ID)
		}
	}

	for site, set := range c.callees {
		db.Callees[site] = set.Clone()
	}
	if c.rootSeen {
		db.Contexts.Add(nil)
	}
	var path []int
	for n := 1; n < len(c.trie.parent); n++ {
		path = c.trie.appendPath(path[:0], int32(n))
		db.Contexts.Add(path)
	}

	// Likely non-null loads: every load site never observed producing 0
	// this run (sites that did not execute trivially qualify, like
	// singleton spawns — the intersection merge keeps only sites that
	// held across every profiled run).
	zero := c.zeroLoads
	for _, in := range c.prog.Instrs {
		if in.Op == ir.OpLoad && !zero.Has(in.ID) {
			db.NonNullLoads.Add(in.ID)
		}
	}
	return db
}

// Run profiles one execution of prog on the given inputs and schedule
// seed, returning the per-run invariant database.
func Run(prog *ir.Program, inputs []int64, seed uint64) (*invariants.DB, error) {
	return RunCoded(nil, nil, prog, inputs, seed)
}

// RunCoded is Run under a cancellation context (nil: none), which
// stops the profiled execution within one scheduling quantum, with a
// precompiled bytecode image shared across runs (nil: the engine
// compiles one from Masks(prog) per run). The
// image must flag at least the events of Masks(prog); one compiled
// from interp.Masks{} (every event but the Exec firehose) gives the
// same database, only slower.
func RunCoded(ctx context.Context, code *interp.Code, prog *ir.Program, inputs []int64, seed uint64) (*invariants.DB, error) {
	col := NewCollector(prog)
	cfg := interp.Config{
		Prog:   prog,
		Inputs: inputs,
		Tracer: col,
		Choose: sched.NewSeeded(seed),
		Code:   code,
		Ctx:    ctx,
	}
	if code == nil {
		cfg.Masks = Masks(prog)
	}
	_, err := interp.Run(cfg)
	if err != nil {
		return nil, err
	}
	return col.Summarize(), nil
}

// Stats carries auxiliary profiling observations used by aggressive
// invariant construction (§2.1 of the paper discusses trading the
// stability of an invariant for strength by assuming properties that
// are only *usually* true during profiling).
type Stats struct {
	// BlockRuns counts, per block ID, in how many profiled executions
	// the block was entered.
	BlockRuns map[int]int
	// Runs is the number of profiled executions.
	Runs int
}
