// Package staticslice implements Weiser-style static backward slicing
// (§5.1.1 of the paper) over MiniLang IR.
//
// The slicer computes data-flow slices (no control dependencies, as
// OptSlice does) by building a backward definition-use graph lazily
// from the slice criterion and closing over it:
//
//   - register uses depend on the reaching definitions of the register
//     (restricted flow-sensitively to defs that may precede the use);
//   - loads additionally depend on aliasing stores (via the points-to
//     analysis), again restricted to stores in blocks that may precede
//     the load when both are in the same function;
//   - parameters depend on the call/spawn sites that bind them, and
//     call results depend on the callee's return instructions —
//     context-sensitively when the points-to result was computed over
//     a context-sensitive tree.
//
// The visited-node set is a bitset (the paper uses BDDs for the same
// purpose). Predication comes in through the points-to result: a
// predicated points-to analysis has already pruned likely-unreachable
// blocks, unobserved indirect-call targets, and unobserved call
// contexts, and the slicer only walks what that analysis saw.
package staticslice

import (
	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/ir"
	"oha/internal/pointsto"
)

// Slice is the result of one backward slice.
type Slice struct {
	// Instrs holds the instruction IDs in the slice (context-collapsed).
	Instrs *bitset.Set
	// Nodes is the number of (context, instruction) DUG nodes visited.
	Nodes int
	// Criterion is the slice endpoint.
	Criterion *ir.Instr
}

// Size returns the number of distinct instructions in the slice.
func (s *Slice) Size() int { return s.Instrs.Len() }

// Contains reports whether an instruction is in the slice.
func (s *Slice) Contains(in *ir.Instr) bool { return s.Instrs.Has(in.ID) }

// Slicer answers backward-slice queries against one points-to result.
// Building a Slicer precomputes the def and memory indexes; individual
// slices are then cheap.
type Slicer struct {
	prog  *ir.Program
	pt    *pointsto.Result
	reach *ir.Reach

	// defs[fnID][varID] = defining instructions of that register.
	defs map[int]map[int][]*ir.Instr
	// stores = analyzed store nodes with their address points-to sets.
	stores []storeNode
	// callersOf[calleeCtx] = call edges targeting that context.
	callersOf map[ctxs.ID][]pointsto.CallEdge
	// retsOf[fnID] = return instructions of the function.
	retsOf map[int][]*ir.Instr
}

type storeNode struct {
	ctx  ctxs.ID
	in   *ir.Instr
	addr *bitset.Set
}

// New builds a slicer over a points-to result (sound or predicated,
// context-sensitive or -insensitive — the slicer inherits whichever
// discipline pt used).
func New(pt *pointsto.Result) *Slicer {
	s := &Slicer{
		prog:      pt.Prog,
		pt:        pt,
		reach:     ir.ComputeReach(pt.Prog),
		defs:      map[int]map[int][]*ir.Instr{},
		callersOf: map[ctxs.ID][]pointsto.CallEdge{},
		retsOf:    map[int][]*ir.Instr{},
	}
	for _, in := range pt.SeededInstrs() {
		fn := in.Block.Fn
		if in.Dst != nil {
			m := s.defs[fn.ID]
			if m == nil {
				m = map[int][]*ir.Instr{}
				s.defs[fn.ID] = m
			}
			m[in.Dst.ID] = append(m[in.Dst.ID], in)
		}
		switch in.Op {
		case ir.OpStore:
			for _, c := range pt.Tree.CtxsOf(fn) {
				s.stores = append(s.stores, storeNode{ctx: c, in: in, addr: pt.AddrPts(c, in)})
			}
		case ir.OpRet:
			s.retsOf[fn.ID] = append(s.retsOf[fn.ID], in)
		}
	}
	for _, e := range pt.CallEdges() {
		s.callersOf[e.Callee] = append(s.callersOf[e.Callee], e)
	}
	return s
}

// node keys a (context, instruction) DUG node.
type node struct {
	ctx ctxs.ID
	in  *ir.Instr
}

// PointsTo returns the points-to result the slicer queries.
func (s *Slicer) PointsTo() *pointsto.Result { return s.pt }

// BackwardSlice computes the static backward data-flow slice of the
// criterion instruction, unioned over every context in which the
// criterion's function was analyzed.
func (s *Slicer) BackwardSlice(criterion *ir.Instr) *Slice {
	out := &Slice{Instrs: &bitset.Set{}, Criterion: criterion}
	visited := map[node]bool{}
	var work []node
	push := func(n node) {
		if !visited[n] {
			visited[n] = true
			work = append(work, n)
		}
	}
	for _, c := range s.pt.Tree.CtxsOf(criterion.Block.Fn) {
		push(node{ctx: c, in: criterion})
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		out.Instrs.Add(n.in.ID)
		s.deps(n, push)
	}
	out.Nodes = len(visited)
	return out
}

// deps pushes every DUG predecessor of n.
func (s *Slicer) deps(n node, push func(node)) {
	in, c := n.in, n.ctx
	fn := in.Block.Fn

	// Register operand uses.
	s.operandDeps(c, fn, in, in.A, push)
	s.operandDeps(c, fn, in, in.B, push)
	for _, a := range in.Args {
		s.operandDeps(c, fn, in, a, push)
	}

	switch in.Op {
	case ir.OpLoad:
		// Memory dependence: aliasing stores that may precede.
		lp := s.pt.AddrPts(c, in)
		for _, st := range s.stores {
			if !st.addr.Intersects(lp) {
				continue
			}
			if st.in.Block.Fn == fn && st.ctx == c && !s.reach.MayPrecede(st.in, in) {
				continue // flow-sensitive: the store cannot precede the load
			}
			push(node{ctx: st.ctx, in: st.in})
		}
	case ir.OpCall:
		// The call's result comes from the callee's returns.
		for _, ce := range s.pt.CtxCallees(c, in) {
			calleeFn := s.pt.Tree.FnOf(ce)
			for _, ret := range s.retsOf[calleeFn.ID] {
				push(node{ctx: ce, in: ret})
			}
		}
	}
}

// operandDeps pushes the defs feeding one operand use.
func (s *Slicer) operandDeps(c ctxs.ID, fn *ir.Function, use *ir.Instr, op ir.Operand, push func(node)) {
	if op.Kind != ir.OperVar {
		return
	}
	v := op.Var
	for _, def := range s.defs[fn.ID][v.ID] {
		if s.reach.MayPrecede(def, use) {
			push(node{ctx: c, in: def})
		}
	}
	// Parameters are bound by callers (call, spawn).
	if isParam(fn, v) {
		for _, e := range s.callersOf[c] {
			push(node{ctx: e.Caller, in: e.Site})
		}
	}
}

func isParam(fn *ir.Function, v *ir.Var) bool {
	for _, p := range fn.Params {
		if p == v {
			return true
		}
	}
	return false
}

// NonTrivialEndpoints returns analyzed instructions whose sound static
// slice contains at least minSize instructions — the paper's
// "non-trivial endpoints" (§6.1.2, threshold 500). Endpoints are drawn
// from print and store instructions (observable effects).
func (s *Slicer) NonTrivialEndpoints(minSize int) []*ir.Instr {
	var out []*ir.Instr
	for _, in := range s.pt.SeededInstrs() {
		if in.Op != ir.OpPrint && in.Op != ir.OpStore {
			continue
		}
		if s.BackwardSlice(in).Size() >= minSize {
			out = append(out, in)
		}
	}
	return out
}
