// Package ctxs manages calling-context trees for the context-sensitive
// static analyses.
//
// As §3 of the paper describes, a context-sensitive data-flow analysis
// builds its definition-use graph bottom-up from main, cloning each
// function's local DUG once per distinct call stack, with recursive
// calls connected back to the existing clone instead of cloning
// further. A context-insensitive analysis keeps a single copy of each
// function's local DUG.
//
// Both disciplines are expressed here as a Tree: analyses ask the tree
// to Extend a context through a call edge and receive either an
// existing or a fresh context id. Three behaviours matter:
//
//   - CI trees hand every function exactly one context, so "cloning"
//     collapses to the context-insensitive analysis.
//   - CS trees clone per acyclic call path, collapse recursion, and
//     fail with ErrBudget when the clone count exceeds a budget —
//     modelling the paper's observation that sound context-sensitive
//     analysis "fails to scale" on large programs (Table 2).
//   - CS trees built with an observed-context set (the likely
//     unused-call-contexts invariant, §5.2.3) refuse to clone
//     unobserved paths: Extend reports Pruned, the predicated
//     analysis drops that edge, and the runtime check compensates.
package ctxs

import (
	"errors"

	"oha/internal/invariants"
	"oha/internal/ir"
)

// ID identifies a context (a clone of one function). IDs are dense,
// starting at 0 for main's root context.
type ID int

// ExtendStatus reports the outcome of extending a context.
type ExtendStatus uint8

// Extend outcomes.
const (
	// Extended: the returned context is the (new or interned) clone of
	// the callee for this path.
	Extended ExtendStatus = iota
	// Recursive: the callee is already on the path; the returned
	// context is the existing ancestor clone (recursion collapsed).
	Recursive
	// Pruned: the path is not in the observed-context set; the
	// predicated analysis must drop this call edge.
	Pruned
)

// ErrBudget is returned when a context-sensitive tree exceeds its
// clone budget — the analysis "fails to run" on this program.
var ErrBudget = errors.New("ctxs: context budget exceeded")

type node struct {
	parent ID
	fn     int   // function ID of this clone
	site   int   // call-site instr ID that created it (-1 for roots)
	path   []int // acyclic call-site path from the root
}

// Tree is a calling-context tree shared by the CS points-to analysis
// and the CS slicer. The zero value is not usable; see NewCI / NewCS.
type Tree struct {
	prog      *ir.Program
	sensitive bool
	budget    int
	allowed   *invariants.ContextSet // nil: all contexts allowed

	nodes  []node
	intern map[[3]int]ID // (parent, site, callee fn) -> child (CS)
	fnCtx  []ID          // function -> its single context (CI); -1 unset
	byFn   [][]ID        // function -> contexts
}

// NewCI returns a context-insensitive tree: every function gets
// exactly one context.
func NewCI(prog *ir.Program) *Tree {
	t := &Tree{prog: prog, sensitive: false, intern: map[[3]int]ID{}}
	t.fnCtx = make([]ID, len(prog.Funcs))
	for i := range t.fnCtx {
		t.fnCtx[i] = -1
	}
	t.byFn = make([][]ID, len(prog.Funcs))
	t.root(prog.Main())
	return t
}

// NewCS returns a context-sensitive tree cloning per acyclic call
// path. budget bounds the total number of clones (<=0 means a default
// of 4096). allowed, when non-nil, restricts cloning to the observed
// contexts of the likely-unused-call-contexts invariant.
func NewCS(prog *ir.Program, budget int, allowed *invariants.ContextSet) *Tree {
	if budget <= 0 {
		budget = 4096
	}
	t := &Tree{prog: prog, sensitive: true, budget: budget, allowed: allowed, intern: map[[3]int]ID{}}
	t.fnCtx = make([]ID, len(prog.Funcs))
	for i := range t.fnCtx {
		t.fnCtx[i] = -1
	}
	t.byFn = make([][]ID, len(prog.Funcs))
	t.root(prog.Main())
	return t
}

// root creates main's context.
func (t *Tree) root(main *ir.Function) ID {
	id := ID(len(t.nodes))
	t.nodes = append(t.nodes, node{parent: -1, fn: main.ID, site: -1})
	t.byFn[main.ID] = append(t.byFn[main.ID], id)
	if !t.sensitive {
		t.fnCtx[main.ID] = id
	}
	return id
}

// Root returns main's context (always 0).
func (t *Tree) Root() ID { return 0 }

// Sensitive reports whether the tree distinguishes call paths.
func (t *Tree) Sensitive() bool { return t.sensitive }

// FnOf returns the function a context is a clone of.
func (t *Tree) FnOf(c ID) *ir.Function { return t.prog.Funcs[t.nodes[c].fn] }

// Path returns the acyclic call-site path of a context (empty for
// roots; shared storage — do not mutate).
func (t *Tree) Path(c ID) []int { return t.nodes[c].path }

// Len returns the number of contexts created so far.
func (t *Tree) Len() int { return len(t.nodes) }

// CtxsOf returns all contexts of a function.
func (t *Tree) CtxsOf(fn *ir.Function) []ID { return t.byFn[fn.ID] }

// Extend walks a call edge: from context c, call site `site` invoking
// callee. For CI trees it returns the callee's single context. For CS
// trees it returns the interned or fresh clone, collapses recursion,
// honours the observed-context restriction, and enforces the budget.
//
// Spawn sites extend contexts exactly like call sites, matching the
// profiler.
func (t *Tree) Extend(c ID, site *ir.Instr, callee *ir.Function) (ID, ExtendStatus, error) {
	if !t.sensitive {
		if t.fnCtx[callee.ID] == -1 {
			id := ID(len(t.nodes))
			t.nodes = append(t.nodes, node{parent: -1, fn: callee.ID, site: -1})
			t.fnCtx[callee.ID] = id
			t.byFn[callee.ID] = append(t.byFn[callee.ID], id)
		}
		return t.fnCtx[callee.ID], Extended, nil
	}
	// Recursion: if callee is already on the path, link back to the
	// nearest ancestor clone of callee.
	for cur := c; cur != -1; cur = t.nodes[cur].parent {
		if t.nodes[cur].fn == callee.ID {
			return cur, Recursive, nil
		}
	}
	key := [3]int{int(c), site.ID, callee.ID}
	if id, ok := t.intern[key]; ok {
		return id, Extended, nil
	}
	path := append(append([]int(nil), t.nodes[c].path...), site.ID)
	if t.allowed != nil && !t.allowed.Has(path) {
		return -1, Pruned, nil
	}
	if len(t.nodes) >= t.budget {
		return -1, Extended, ErrBudget
	}
	id := ID(len(t.nodes))
	t.nodes = append(t.nodes, node{parent: c, fn: callee.ID, site: site.ID, path: path})
	t.intern[key] = id
	t.byFn[callee.ID] = append(t.byFn[callee.ID], id)
	return id, Extended, nil
}

// ExportCI returns the portable image of a context-insensitive tree:
// the function ID of each node in creation order. Context IDs are
// positional, so ImportCI over the same program rebuilds a tree whose
// IDs match exactly — which is what lets solver state keyed by context
// ID survive serialization. Sensitive trees have no stable portable
// form (their identity includes interned call paths and the live
// budget) and are rejected.
func (t *Tree) ExportCI() ([]int, error) {
	if t.sensitive {
		return nil, errors.New("ctxs: context-sensitive trees are not portable")
	}
	fns := make([]int, len(t.nodes))
	for i, n := range t.nodes {
		fns[i] = n.fn
	}
	return fns, nil
}

// ImportCI rebuilds a context-insensitive tree from an ExportCI image.
// fns[0] must be main's function ID and every entry must name a
// distinct in-range function, so a corrupted image fails here rather
// than producing out-of-range context IDs downstream.
func ImportCI(prog *ir.Program, fns []int) (*Tree, error) {
	main := prog.Main()
	if main == nil {
		return nil, errors.New("ctxs: program has no main")
	}
	if len(fns) == 0 || fns[0] != main.ID {
		return nil, errors.New("ctxs: import does not start at main")
	}
	t := NewCI(prog)
	for _, fid := range fns[1:] {
		if fid < 0 || fid >= len(prog.Funcs) {
			return nil, errors.New("ctxs: import names an out-of-range function")
		}
		if t.fnCtx[fid] != -1 {
			return nil, errors.New("ctxs: import repeats a function")
		}
		id := ID(len(t.nodes))
		t.nodes = append(t.nodes, node{parent: -1, fn: fid, site: -1})
		t.fnCtx[fid] = id
		t.byFn[fid] = append(t.byFn[fid], id)
	}
	return t, nil
}
