// Package pointsto implements an Andersen-style inclusion-based
// points-to analysis (§5.1.2 of the paper) over MiniLang IR, in
// context-insensitive and context-sensitive variants with heap
// cloning, plus the predicated variants that assume likely invariants:
//
//   - likely-unreachable code prunes whole blocks from the constraint
//     graph;
//   - likely callee sets replace pts-driven indirect-call resolution
//     with the profiled target sets;
//   - likely-unused call contexts (via a restricted ctxs.Tree) stop
//     the context-sensitive analysis from cloning unrealized call
//     chains.
//
// The abstract object space is: one object per global array/scalar
// (field-insensitive over arrays), one heap object per allocation site
// (per allocation site and calling context when the tree is sensitive
// — heap cloning), and one object per function (function values).
// Points-to sets are bitsets over object ids; the paper tracks these
// with BDDs, an equivalent set representation.
package pointsto

import (
	"fmt"
	"sort"

	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
)

// ObjKind classifies abstract objects.
type ObjKind uint8

// Object kinds.
const (
	ObjGlobal ObjKind = iota // a global scalar or array group
	ObjHeap                  // an allocation site (× context if CS)
	ObjFunc                  // a function value
)

// Object describes one abstract object.
type Object struct {
	Kind ObjKind
	// Global group leader ID (ObjGlobal), allocation-site instr ID
	// (ObjHeap), or function ID (ObjFunc).
	Key int
	Ctx ctxs.ID // allocating context for cloned heap objects (-1 if n/a)
}

func (o Object) String() string {
	switch o.Kind {
	case ObjGlobal:
		return fmt.Sprintf("glob(%d)", o.Key)
	case ObjHeap:
		if o.Ctx >= 0 {
			return fmt.Sprintf("heap(%d@%d)", o.Key, o.Ctx)
		}
		return fmt.Sprintf("heap(%d)", o.Key)
	}
	return fmt.Sprintf("func(%d)", o.Key)
}

// Analysis runs the solver; use Analyze.
type analysis struct {
	prog  *ir.Program
	tree  *ctxs.Tree
	facts *Facts // nil: sound analysis

	// Abstract objects.
	objs      []Object
	objIntern map[Object]int
	funcObj   []int // function ID -> object ID
	globObj   map[int]int

	// Node space: per-context register nodes + a return node, plus one
	// content node per object.
	ctxBase    map[ctxs.ID]int
	contentOf  map[int]int // object ID -> its content node
	nNodes     int
	pts        []*bitset.Set
	copyTo     [][]int // copy edges
	loadUsers  [][]int // addr node -> dst nodes of loads through it
	storeSrcs  [][]src // addr node -> value sources of stores through it
	callUsers  [][]callSite
	seededCtx  map[ctxs.ID]bool
	work       []int
	inWork     []bool
	callEdges  map[callKey]bool
	fnCallees  map[int]map[int]bool // call-site instr ID -> callee fn IDs
	ctxCallees map[callKey2][]ctxs.ID
	seeded     []*ir.Instr // instructions included in the analysis (deduped)
	seenInstr  map[int]bool
}

// src is a points-to "source": a node or a constant object.
type src struct {
	node int // -1 if none
	obj  int // -1 if none
}

type callSite struct {
	ctx ctxs.ID
	in  *ir.Instr
}

type callKey struct {
	site   int
	callee int
}

type callKey2 struct {
	ctx  ctxs.ID
	site int
}

// Result is the outcome of a points-to analysis.
type Result struct {
	Prog *ir.Program
	Tree *ctxs.Tree
	a    *analysis
}

// Facts is the projection of an invariant database the predicated
// points-to analysis reads (nil Callees: indirect calls resolve
// soundly). A nil *Facts is the sound analysis.
type Facts struct {
	Visited *bitset.Set
	Callees map[int]*bitset.Set
}

// FactsOf projects db (nil: the sound analysis).
func FactsOf(db *invariants.DB) *Facts {
	if db == nil {
		return nil
	}
	return &Facts{Visited: db.Visited, Callees: db.Callees}
}

// Digest fingerprints f by its invariant text (invariants.Text).
func (f *Facts) Digest() string {
	if f == nil {
		return "sound"
	}
	return new(invariants.Text).Visited(f.Visited).Callees(f.Callees).Digest()
}

// Analyze runs the points-to analysis for prog over the given context
// tree. db non-nil selects the predicated variant assuming its likely
// invariants. The only error is ctxs.ErrBudget, meaning a
// context-sensitive analysis did not scale to this program.
func Analyze(prog *ir.Program, tree *ctxs.Tree, db *invariants.DB) (*Result, error) {
	return Solve(prog, tree, FactsOf(db), 1)
}

func newAnalysis(prog *ir.Program, tree *ctxs.Tree, f *Facts) *analysis {
	a := &analysis{
		prog:       prog,
		tree:       tree,
		facts:      f,
		objIntern:  map[Object]int{},
		globObj:    map[int]int{},
		ctxBase:    map[ctxs.ID]int{},
		contentOf:  map[int]int{},
		seededCtx:  map[ctxs.ID]bool{},
		callEdges:  map[callKey]bool{},
		fnCallees:  map[int]map[int]bool{},
		ctxCallees: map[callKey2][]ctxs.ID{},
		seenInstr:  map[int]bool{},
	}
	a.funcObj = make([]int, len(prog.Funcs))
	for i := range a.funcObj {
		a.funcObj[i] = -1
	}
	return a
}

func (a *analysis) newNode() int {
	a.nNodes++
	a.pts = append(a.pts, &bitset.Set{})
	a.copyTo = append(a.copyTo, nil)
	a.loadUsers = append(a.loadUsers, nil)
	a.storeSrcs = append(a.storeSrcs, nil)
	a.callUsers = append(a.callUsers, nil)
	a.inWork = append(a.inWork, false)
	return a.nNodes - 1
}

// base returns the first node of a context's register file, allocating
// the block (plus the return node) on first use.
func (a *analysis) base(c ctxs.ID) int {
	if b, ok := a.ctxBase[c]; ok {
		return b
	}
	fn := a.tree.FnOf(c)
	b := a.nNodes
	for i := 0; i <= len(fn.Vars); i++ { // +1: return node
		a.newNode()
	}
	a.ctxBase[c] = b
	return b
}

func (a *analysis) varNode(c ctxs.ID, v *ir.Var) int { return a.base(c) + v.ID }

func (a *analysis) retNode(c ctxs.ID) int {
	return a.base(c) + len(a.tree.FnOf(c).Vars)
}

// object interns an abstract object and returns its id.
func (a *analysis) object(o Object) int {
	if id, ok := a.objIntern[o]; ok {
		return id
	}
	id := len(a.objs)
	a.objs = append(a.objs, o)
	a.objIntern[o] = id
	return id
}

func (a *analysis) globalObject(g *ir.Global) int {
	if id, ok := a.globObj[g.Group]; ok {
		return id
	}
	id := a.object(Object{Kind: ObjGlobal, Key: g.Group, Ctx: -1})
	a.globObj[g.Group] = id
	return id
}

func (a *analysis) functionObject(f *ir.Function) int {
	if a.funcObj[f.ID] == -1 {
		a.funcObj[f.ID] = a.object(Object{Kind: ObjFunc, Key: f.ID, Ctx: -1})
	}
	return a.funcObj[f.ID]
}

// content returns the content node of an object (what its cells hold).
func (a *analysis) content(obj int) int {
	if n, ok := a.contentOf[obj]; ok {
		return n
	}
	n := a.newNode()
	a.contentOf[obj] = n
	return n
}

func (a *analysis) push(n int) {
	if !a.inWork[n] {
		a.inWork[n] = true
		a.work = append(a.work, n)
	}
}

// addObj seeds object o into node n's points-to set.
func (a *analysis) addObj(n, o int) {
	if a.pts[n].Add(o) {
		a.push(n)
	}
}

// copyEdge adds n -> m and propagates current contents.
func (a *analysis) copyEdge(n, m int) {
	a.copyTo[n] = append(a.copyTo[n], m)
	if a.pts[m].UnionChanged(a.pts[n]) {
		a.push(m)
	}
}

// operandSrc converts an operand in context c into a source.
func (a *analysis) operandSrc(c ctxs.ID, op ir.Operand) src {
	switch op.Kind {
	case ir.OperVar:
		return src{node: a.varNode(c, op.Var), obj: -1}
	case ir.OperGlobal:
		return src{node: -1, obj: a.globalObject(op.Global)}
	case ir.OperFunc:
		return src{node: -1, obj: a.functionObject(op.Func)}
	}
	return src{node: -1, obj: -1}
}

// flowTo wires a source into a destination node.
func (a *analysis) flowTo(s src, dst int) {
	if s.node >= 0 {
		a.copyEdge(s.node, dst)
	}
	if s.obj >= 0 {
		a.addObj(dst, s.obj)
	}
}

// skipBlock reports whether the predicated analysis prunes this block
// (likely-unreachable code).
func (a *analysis) skipBlock(b *ir.Block) bool {
	return a.facts != nil && !a.facts.Visited.Has(b.ID)
}

// seedCtx adds the constraints of every (non-pruned) instruction of
// one function clone.
func (a *analysis) seedCtx(c ctxs.ID) error {
	if a.seededCtx[c] {
		return nil
	}
	a.seededCtx[c] = true
	fn := a.tree.FnOf(c)
	for _, b := range fn.Blocks {
		if a.skipBlock(b) {
			continue
		}
		for _, in := range b.Instrs {
			if !a.seenInstr[in.ID] {
				a.seenInstr[in.ID] = true
				a.seeded = append(a.seeded, in)
			}
			if err := a.seedInstr(c, in); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *analysis) seedInstr(c ctxs.ID, in *ir.Instr) error {
	switch in.Op {
	case ir.OpCopy:
		a.flowTo(a.operandSrc(c, in.A), a.varNode(c, in.Dst))
	case ir.OpBin:
		// Pointer arithmetic: only +/- can carry a pointer through.
		if in.Bin == ir.BinAdd || in.Bin == ir.BinSub {
			a.flowTo(a.operandSrc(c, in.A), a.varNode(c, in.Dst))
			a.flowTo(a.operandSrc(c, in.B), a.varNode(c, in.Dst))
		}
	case ir.OpAlloc:
		octx := ctxs.ID(-1)
		if a.tree.Sensitive() {
			octx = c // heap cloning
		}
		obj := a.object(Object{Kind: ObjHeap, Key: in.ID, Ctx: octx})
		a.addObj(a.varNode(c, in.Dst), obj)
	case ir.OpLoad:
		dst := a.varNode(c, in.Dst)
		s := a.operandSrc(c, in.A)
		if s.obj >= 0 { // load directly from a global
			a.copyEdge(a.content(s.obj), dst)
		}
		if s.node >= 0 {
			a.loadUsers[s.node] = append(a.loadUsers[s.node], dst)
			a.pts[s.node].ForEach(func(o int) bool {
				a.copyEdge(a.content(o), dst)
				return true
			})
		}
	case ir.OpStore:
		val := a.operandSrc(c, in.B)
		addr := a.operandSrc(c, in.A)
		if addr.obj >= 0 {
			a.flowTo(val, a.content(addr.obj))
		}
		if addr.node >= 0 {
			a.storeSrcs[addr.node] = append(a.storeSrcs[addr.node], val)
			a.pts[addr.node].ForEach(func(o int) bool {
				a.flowTo(val, a.content(o))
				return true
			})
		}
	case ir.OpCall, ir.OpSpawn:
		if in.Callee != nil {
			return a.wireCall(c, in, in.Callee)
		}
		// Indirect. Predicated with the likely-callee-sets invariant
		// enabled (a non-nil Callees map): use the profiled target set
		// only. A nil map means the invariant is disabled (ablation
		// studies) and resolution falls through to the sound
		// points-to-driven mechanism below.
		if a.facts != nil && a.facts.Callees != nil {
			if set, ok := a.facts.Callees[in.ID]; ok {
				var err error
				set.ForEach(func(fid int) bool {
					err = a.wireCall(c, in, a.prog.Funcs[fid])
					return err == nil
				})
				return err
			}
			return nil // never observed: prune (checked at runtime)
		}
		s := a.operandSrc(c, in.A)
		if s.node >= 0 {
			a.callUsers[s.node] = append(a.callUsers[s.node], callSite{ctx: c, in: in})
			var err error
			a.pts[s.node].ForEach(func(o int) bool {
				if a.objs[o].Kind == ObjFunc {
					err = a.wireCall(c, in, a.prog.Funcs[a.objs[o].Key])
				}
				return err == nil
			})
			return err
		}
		if s.obj >= 0 && a.objs[s.obj].Kind == ObjFunc {
			return a.wireCall(c, in, a.prog.Funcs[a.objs[s.obj].Key])
		}
	case ir.OpRet:
		a.flowTo(a.operandSrc(c, in.A), a.retNode(c))
	}
	return nil
}

// wireCall connects a call edge: extends the context tree, seeds the
// callee, and wires arguments and the return value.
func (a *analysis) wireCall(c ctxs.ID, in *ir.Instr, callee *ir.Function) error {
	if len(in.Args) != len(callee.Params) {
		return nil // would trap at runtime; no data flow
	}
	key := callKey{site: in.ID, callee: callee.ID}
	ck2 := callKey2{ctx: c, site: in.ID}
	calleeCtx, status, err := a.tree.Extend(c, in, callee)
	if err != nil {
		return err
	}
	if status == ctxs.Pruned {
		return nil
	}
	already := false
	for _, prev := range a.ctxCallees[ck2] {
		if prev == calleeCtx {
			already = true
			break
		}
	}
	if already {
		return nil
	}
	a.ctxCallees[ck2] = append(a.ctxCallees[ck2], calleeCtx)
	a.callEdges[key] = true
	m := a.fnCallees[in.ID]
	if m == nil {
		m = map[int]bool{}
		a.fnCallees[in.ID] = m
	}
	m[callee.ID] = true

	if err := a.seedCtx(calleeCtx); err != nil {
		return err
	}
	for i, p := range callee.Params {
		a.flowTo(a.operandSrc(c, in.Args[i]), a.varNode(calleeCtx, p))
	}
	if in.Op == ir.OpCall && in.Dst != nil {
		a.copyEdge(a.retNode(calleeCtx), a.varNode(c, in.Dst))
	}
	return nil
}

func (a *analysis) solve() error {
	if err := a.seedCtx(a.tree.Root()); err != nil {
		return err
	}
	if err := a.drain(); err != nil {
		return err
	}
	a.finish()
	return nil
}

// drain runs the worklist to saturation.
func (a *analysis) drain() error {
	for len(a.work) > 0 {
		n := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		a.inWork[n] = false
		if err := a.processNode(n); err != nil {
			return err
		}
	}
	return nil
}

// processNode propagates node n's points-to set through its copy,
// load, store, and indirect-call constraints.
func (a *analysis) processNode(n int) error {
	np := a.pts[n]

	// Copy successors.
	for _, m := range a.copyTo[n] {
		if a.pts[m].UnionChanged(np) {
			a.push(m)
		}
	}
	return a.processDeref(n)
}

// processDeref handles node n's dereference constraints — loads,
// stores, and indirect calls — which may allocate content nodes,
// extend the context tree, and seed new constraints. The parallel
// solver runs copy propagation concurrently but always funnels these
// through one goroutine in deterministic order.
func (a *analysis) processDeref(n int) error {
	np := a.pts[n]

	// Loads through n: dst gets contents of all pointees.
	if users := a.loadUsers[n]; users != nil {
		np.ForEach(func(o int) bool {
			cn := a.content(o)
			for _, dst := range users {
				a.copyEdge(cn, dst)
			}
			return true
		})
	}
	// Stores through n: pointee contents get sources.
	if srcs := a.storeSrcs[n]; srcs != nil {
		np.ForEach(func(o int) bool {
			cn := a.content(o)
			for _, s := range srcs {
				a.flowTo(s, cn)
			}
			return true
		})
	}
	// Indirect calls through n.
	if sites := a.callUsers[n]; sites != nil {
		var err error
		np.ForEach(func(o int) bool {
			if a.objs[o].Kind != ObjFunc {
				return true
			}
			f := a.prog.Funcs[a.objs[o].Key]
			for _, cs := range sites {
				if err = a.wireCall(cs.ctx, cs.in, f); err != nil {
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// finish canonicalizes order-dependent state once the fixpoint is
// reached: the seeded-instruction list is sorted by instruction ID so
// sequential, parallel, and resumed solves expose identical instruction
// order to clients (the static race detector enumerates access pairs in
// this order — keeping it canonical keeps race-pair lists bit-identical
// across solver variants).
func (a *analysis) finish() {
	// A resumed analysis that seeded nothing new still shares the
	// parent's (already sorted) slice; sorting it in place would write
	// into the parent's backing array, so only sort when needed — any
	// append has already reallocated the slice (its capacity is capped
	// at clone time).
	less := func(i, j int) bool { return a.seeded[i].ID < a.seeded[j].ID }
	if !sort.SliceIsSorted(a.seeded, less) {
		sort.Slice(a.seeded, less)
	}
}
