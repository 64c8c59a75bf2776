// Portable serialization of saturated points-to results, so the
// artifact cache's disk tier can restore a solved analysis across
// process restarts without re-running the solver. Only context-
// insensitive results are portable: a CS tree's identity includes
// interned call paths and a live budget, so CS artifacts stay memory-only — Encode returns an error and the
// cache treats it as "don't persist".
//
// The wire form replaces every pointer with a stable ID (instruction
// IDs, function IDs, node indices, context IDs), maps with sorted
// pair-slices, and bitsets with word images. Decode rebinds IDs
// against the program and validates every index, so a corrupted disk
// artifact fails to decode (an ordinary cache miss) rather than
// panicking downstream.
package pointsto

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/ir"
)

type wireObject struct {
	Kind uint8
	Key  int
	Ctx  int
}

type wireSrc struct {
	Node, Obj int
}

type wireCallSite struct {
	Ctx   int
	Instr int
}

type wirePair struct {
	K, V int
}

type wireIntSet struct {
	K  int
	Vs []int
}

type wireCtxCallees struct {
	Ctx, Site int
	Out       []int
}

type wireAnalysis struct {
	TreeFns    []int
	Objs       []wireObject
	FuncObj    []int
	GlobObj    []wirePair
	CtxBase    []wirePair
	ContentOf  []wirePair
	NNodes     int
	Pts        [][]uint64
	CopyTo     [][]int
	LoadUsers  [][]int
	StoreSrcs  [][]wireSrc
	CallUsers  [][]wireCallSite
	SeededCtx  []int
	CallEdges  []wirePair // K=site, V=callee
	FnCallees  []wireIntSet
	CtxCallees []wireCtxCallees
	Seeded     []int
}

func sortedPairs(m map[int]int) []wirePair {
	out := make([]wirePair, 0, len(m))
	for k, v := range m {
		out = append(out, wirePair{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// Encode serializes a saturated CI result for the disk tier.
func (r *Result) Encode() ([]byte, error) {
	a := r.a
	fns, err := r.Tree.ExportCI()
	if err != nil {
		return nil, err
	}
	if len(a.work) > 0 {
		return nil, errors.New("pointsto: refusing to serialize an unsaturated analysis")
	}
	w := wireAnalysis{
		TreeFns:   fns,
		FuncObj:   append([]int(nil), a.funcObj...),
		GlobObj:   sortedPairs(a.globObj),
		ContentOf: sortedPairs(a.contentOf),
		NNodes:    a.nNodes,
		Seeded:    make([]int, len(a.seeded)),
	}
	w.Objs = make([]wireObject, len(a.objs))
	for i, o := range a.objs {
		w.Objs[i] = wireObject{Kind: uint8(o.Kind), Key: o.Key, Ctx: int(o.Ctx)}
	}
	w.CtxBase = make([]wirePair, 0, len(a.ctxBase))
	for k, v := range a.ctxBase {
		w.CtxBase = append(w.CtxBase, wirePair{int(k), v})
	}
	sort.Slice(w.CtxBase, func(i, j int) bool { return w.CtxBase[i].K < w.CtxBase[j].K })
	w.Pts = make([][]uint64, len(a.pts))
	for i, s := range a.pts {
		if s != nil {
			w.Pts[i] = s.Words()
		}
	}
	w.CopyTo = a.copyTo
	w.LoadUsers = a.loadUsers
	w.StoreSrcs = make([][]wireSrc, len(a.storeSrcs))
	for i, ss := range a.storeSrcs {
		for _, s := range ss {
			w.StoreSrcs[i] = append(w.StoreSrcs[i], wireSrc{Node: s.node, Obj: s.obj})
		}
	}
	w.CallUsers = make([][]wireCallSite, len(a.callUsers))
	for i, cs := range a.callUsers {
		for _, c := range cs {
			w.CallUsers[i] = append(w.CallUsers[i], wireCallSite{Ctx: int(c.ctx), Instr: c.in.ID})
		}
	}
	for c, on := range a.seededCtx {
		if on {
			w.SeededCtx = append(w.SeededCtx, int(c))
		}
	}
	sort.Ints(w.SeededCtx)
	for k, on := range a.callEdges {
		if on {
			w.CallEdges = append(w.CallEdges, wirePair{k.site, k.callee})
		}
	}
	sort.Slice(w.CallEdges, func(i, j int) bool {
		if w.CallEdges[i].K != w.CallEdges[j].K {
			return w.CallEdges[i].K < w.CallEdges[j].K
		}
		return w.CallEdges[i].V < w.CallEdges[j].V
	})
	for site, callees := range a.fnCallees {
		e := wireIntSet{K: site}
		for fid, on := range callees {
			if on {
				e.Vs = append(e.Vs, fid)
			}
		}
		sort.Ints(e.Vs)
		w.FnCallees = append(w.FnCallees, e)
	}
	sort.Slice(w.FnCallees, func(i, j int) bool { return w.FnCallees[i].K < w.FnCallees[j].K })
	for k, out := range a.ctxCallees {
		e := wireCtxCallees{Ctx: int(k.ctx), Site: k.site}
		for _, c := range out {
			e.Out = append(e.Out, int(c))
		}
		w.CtxCallees = append(w.CtxCallees, e)
	}
	sort.Slice(w.CtxCallees, func(i, j int) bool {
		if w.CtxCallees[i].Ctx != w.CtxCallees[j].Ctx {
			return w.CtxCallees[i].Ctx < w.CtxCallees[j].Ctx
		}
		return w.CtxCallees[i].Site < w.CtxCallees[j].Site
	})
	for i, in := range a.seeded {
		w.Seeded[i] = in.ID
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeResult restores a serialized CI result against prog, bound to
// f (the projection the artifact key was computed from — the wire form
// does not carry it). Every ID is range-checked.
func DecodeResult(prog *ir.Program, f *Facts, data []byte) (*Result, error) {
	var w wireAnalysis
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("pointsto: decode: %w", err)
	}
	tree, err := ctxs.ImportCI(prog, w.TreeFns)
	if err != nil {
		return nil, err
	}
	nctx := tree.Len()
	bad := func(format string, args ...any) (*Result, error) {
		return nil, fmt.Errorf("pointsto: decode: %s", fmt.Sprintf(format, args...))
	}
	okNode := func(n int) bool { return n >= 0 && n < w.NNodes }
	okCtx := func(c int) bool { return c >= 0 && c < nctx }
	okInstr := func(id int) bool { return id >= 0 && id < len(prog.Instrs) }
	okObj := func(o int) bool { return o >= 0 && o < len(w.Objs) }

	a := newAnalysis(prog, tree, f)
	a.objs = make([]Object, len(w.Objs))
	for i, o := range w.Objs {
		if o.Ctx != -1 && !okCtx(o.Ctx) {
			return bad("object %d has context %d of %d", i, o.Ctx, nctx)
		}
		obj := Object{Kind: ObjKind(o.Kind), Key: o.Key, Ctx: ctxs.ID(o.Ctx)}
		a.objs[i] = obj
		a.objIntern[obj] = i
	}
	if len(w.FuncObj) != len(prog.Funcs) {
		return bad("funcObj has %d entries, program has %d functions", len(w.FuncObj), len(prog.Funcs))
	}
	a.funcObj = append([]int(nil), w.FuncObj...)
	for i, o := range a.funcObj {
		if o != -1 && !okObj(o) {
			return bad("funcObj[%d] = %d out of range", i, o)
		}
	}
	for _, p := range w.GlobObj {
		if !okObj(p.V) {
			return bad("globObj[%d] out of range", p.K)
		}
		a.globObj[p.K] = p.V
	}
	for _, p := range w.CtxBase {
		// The context's register block and return node must all be nodes.
		if !okCtx(p.K) || !okNode(p.V) || !okNode(p.V+len(tree.FnOf(ctxs.ID(p.K)).Vars)) {
			return bad("ctxBase entry (%d,%d) out of range", p.K, p.V)
		}
		a.ctxBase[ctxs.ID(p.K)] = p.V
	}
	for _, p := range w.ContentOf {
		if !okObj(p.K) || !okNode(p.V) {
			return bad("contentOf entry (%d,%d) out of range", p.K, p.V)
		}
		a.contentOf[p.K] = p.V
	}
	if w.NNodes < 0 ||
		len(w.Pts) != w.NNodes || len(w.CopyTo) != w.NNodes ||
		len(w.LoadUsers) != w.NNodes || len(w.StoreSrcs) != w.NNodes ||
		len(w.CallUsers) != w.NNodes {
		return bad("node-indexed tables disagree with nNodes=%d", w.NNodes)
	}
	a.nNodes = w.NNodes
	a.pts = make([]*bitset.Set, w.NNodes)
	for i, words := range w.Pts {
		s := bitset.FromWords(words)
		outOfRange := false
		s.ForEach(func(o int) bool {
			if !okObj(o) {
				outOfRange = true
				return false
			}
			return true
		})
		if outOfRange {
			return bad("pts[%d] names an out-of-range object", i)
		}
		a.pts[i] = s
	}
	a.copyTo = make([][]int, w.NNodes)
	for i, ns := range w.CopyTo {
		for _, n := range ns {
			if !okNode(n) {
				return bad("copyTo[%d] -> %d out of range", i, n)
			}
		}
		a.copyTo[i] = ns
	}
	a.loadUsers = make([][]int, w.NNodes)
	for i, ns := range w.LoadUsers {
		for _, n := range ns {
			if !okNode(n) {
				return bad("loadUsers[%d] -> %d out of range", i, n)
			}
		}
		a.loadUsers[i] = ns
	}
	a.storeSrcs = make([][]src, w.NNodes)
	for i, ss := range w.StoreSrcs {
		for _, s := range ss {
			if (s.Node != -1 && !okNode(s.Node)) || (s.Obj != -1 && !okObj(s.Obj)) {
				return bad("storeSrcs[%d] entry out of range", i)
			}
			a.storeSrcs[i] = append(a.storeSrcs[i], src{node: s.Node, obj: s.Obj})
		}
	}
	a.callUsers = make([][]callSite, w.NNodes)
	for i, cs := range w.CallUsers {
		for _, c := range cs {
			if !okCtx(c.Ctx) || !okInstr(c.Instr) {
				return bad("callUsers[%d] entry out of range", i)
			}
			a.callUsers[i] = append(a.callUsers[i], callSite{ctx: ctxs.ID(c.Ctx), in: prog.Instrs[c.Instr]})
		}
	}
	a.inWork = make([]bool, w.NNodes)
	for _, c := range w.SeededCtx {
		if !okCtx(c) {
			return bad("seeded context %d out of range", c)
		}
		a.seededCtx[ctxs.ID(c)] = true
	}
	for _, p := range w.CallEdges {
		if !okInstr(p.K) || p.V < 0 || p.V >= len(prog.Funcs) {
			return bad("call edge (%d,%d) out of range", p.K, p.V)
		}
		a.callEdges[callKey{site: p.K, callee: p.V}] = true
	}
	for _, e := range w.FnCallees {
		if !okInstr(e.K) {
			return bad("fnCallees site %d out of range", e.K)
		}
		m := make(map[int]bool, len(e.Vs))
		for _, fid := range e.Vs {
			if fid < 0 || fid >= len(prog.Funcs) {
				return bad("fnCallees[%d] callee %d out of range", e.K, fid)
			}
			m[fid] = true
		}
		a.fnCallees[e.K] = m
	}
	for _, e := range w.CtxCallees {
		if !okCtx(e.Ctx) || !okInstr(e.Site) {
			return bad("ctxCallees key (%d,%d) out of range", e.Ctx, e.Site)
		}
		var out []ctxs.ID
		for _, c := range e.Out {
			if !okCtx(c) {
				return bad("ctxCallees (%d,%d) -> %d out of range", e.Ctx, e.Site, c)
			}
			out = append(out, ctxs.ID(c))
		}
		a.ctxCallees[callKey2{ctx: ctxs.ID(e.Ctx), site: e.Site}] = out
	}
	a.seeded = make([]*ir.Instr, len(w.Seeded))
	for i, id := range w.Seeded {
		if !okInstr(id) {
			return bad("seeded instruction %d out of range", id)
		}
		a.seeded[i] = prog.Instrs[id]
		a.seenInstr[id] = true
	}
	return &Result{Prog: prog, Tree: tree, a: a}, nil
}
