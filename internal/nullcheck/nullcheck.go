// Package nullcheck implements the OptNull client's predicated static
// phase: a flow-sensitive non-nullness dataflow over the IR CFG that
// statically discharges null checks at dereference sites whose address
// is proven non-null.
//
// The optimistic ingredient is the likely-non-null-loads invariant
// (invariants.DB.NonNullLoads): a load site profiling never observed
// producing 0 is assumed to keep producing non-null values, exactly as
// the paper's predicated analyses assume likely-unreachable code stays
// unreachable. Every use of a fact is recorded, and the speculative
// run verifies precisely those fact sites at runtime — an observed nil
// load there aborts, rolls back, and refines the database.
//
// The pass is two-phase so the points-to results feed it memory facts:
//
//	phase 1  register-only dataflow (sources: allocations, global and
//	         function addresses, non-zero constants; optimistic: loads
//	         covered by NonNullLoads facts), which also proves for each
//	         store whether the stored value is non-null;
//	phase 2  global objects whose cells are initialized non-null and
//	         only ever written phase-1-proven-non-null values become
//	         sound load sources (via pointsto.AddrPtsAll), and the
//	         register pass reruns with those loads sound.
//
// The whole analysis is deterministic: results depend only on the
// program, the database, and the points-to result.
package nullcheck

import (
	"oha/internal/bitset"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/pointsto"
)

// Result is the static phase's output for one (program, database)
// pair.
type Result struct {
	// Discharged holds the load/store instruction IDs whose null check
	// the static phase proved unnecessary (address non-null on every
	// path). Residual sites keep their dynamic checks.
	Discharged *bitset.Set
	// DerefSites is the total number of load/store sites in the
	// program — the denominator of the discharge ratio.
	DerefSites int
	// UsedFacts holds the NonNullLoads fact sites the proof relies on.
	// The speculative run must verify exactly these loads at runtime.
	UsedFacts *bitset.Set
}

// DischargeRatio returns the fraction of dereference sites statically
// discharged (0 when the program has none).
func (r *Result) DischargeRatio() float64 {
	if r.DerefSites == 0 {
		return 0
	}
	return float64(r.Discharged.Len()) / float64(r.DerefSites)
}

// Facts is the projection of an invariant database the predicated
// non-nullness analysis reads. A nil *Facts is the sound analysis.
type Facts struct {
	NonNullLoads *bitset.Set
}

// FactsOf projects db (nil: the sound analysis).
func FactsOf(db *invariants.DB) *Facts {
	if db == nil {
		return nil
	}
	return &Facts{NonNullLoads: db.NonNullLoads}
}

// Digest fingerprints f by its invariant text (invariants.Text).
func (f *Facts) Digest() string {
	if f == nil {
		return "sound"
	}
	return new(invariants.Text).NonNull(f.NonNullLoads).Digest()
}

// Analyze runs the predicated non-nullness analysis. A nil db yields
// the sound variant (no likely invariants assumed, UsedFacts empty);
// a nil pt skips the memory phase (register facts only).
func Analyze(prog *ir.Program, pt *pointsto.Result, db *invariants.DB) *Result {
	f := FactsOf(db)
	res := &Result{Discharged: &bitset.Set{}, UsedFacts: &bitset.Set{}}
	for _, in := range prog.Instrs {
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			res.DerefSites++
		}
	}

	// Phase 1: registers only. Record per-store value non-nullness for
	// the object qualification below.
	storeVal := make([]bool, len(prog.Instrs))
	phase1 := newPass(prog, f, nil)
	phase1.run(func(in *ir.Instr, addrOK, valOK bool) {
		if in.Op == ir.OpStore {
			storeVal[in.ID] = valOK
		}
	})

	soundLoads := soundLoadSites(prog, pt, storeVal)

	// Phase 2: rerun with the memory-backed sound loads; only this
	// run's discharges and fact uses count.
	final := newPass(prog, f, soundLoads)
	final.run(func(in *ir.Instr, addrOK, valOK bool) {
		if (in.Op == ir.OpLoad || in.Op == ir.OpStore) && addrOK {
			res.Discharged.Add(in.ID)
		}
	})
	res.UsedFacts = final.used
	return res
}

// soundLoadSites computes the load sites whose result is soundly
// non-null because every object the address may denote is a global
// group that (a) is initialized all-non-null and (b) is only ever
// stored phase-1-proven-non-null values.
func soundLoadSites(prog *ir.Program, pt *pointsto.Result, storeVal []bool) []bool {
	if pt == nil {
		return nil
	}
	objs := pt.Objects()
	objOK := make([]bool, len(objs))
	for id, o := range objs {
		if o.Kind != pointsto.ObjGlobal {
			continue
		}
		ok := false
		for _, g := range prog.Globals {
			if g.Group != o.Key {
				continue
			}
			ok = true
			if g.Init == 0 {
				ok = false
				break
			}
		}
		objOK[id] = ok
	}
	// Any store that may write an object with a maybe-null value
	// disqualifies it. Stores the predicated points-to excluded sit in
	// likely-unreachable code, whose execution already aborts the run.
	for _, in := range prog.Instrs {
		if in.Op != ir.OpStore || !pt.Analyzed(in) || storeVal[in.ID] {
			continue
		}
		pt.AddrPtsAll(in).ForEach(func(obj int) bool {
			if obj < len(objOK) {
				objOK[obj] = false
			}
			return true
		})
	}
	sound := make([]bool, len(prog.Instrs))
	for _, in := range prog.Instrs {
		if in.Op != ir.OpLoad || !pt.Analyzed(in) {
			continue
		}
		pts := pt.AddrPtsAll(in)
		if pts.IsEmpty() {
			continue
		}
		all := true
		pts.ForEach(func(obj int) bool {
			if obj >= len(objOK) || !objOK[obj] {
				all = false
				return false
			}
			return true
		})
		sound[in.ID] = all
	}
	return sound
}

// pass is one register dataflow run over every function.
type pass struct {
	prog       *ir.Program
	facts      *Facts
	soundLoads []bool
	used       *bitset.Set
}

func newPass(prog *ir.Program, f *Facts, soundLoads []bool) *pass {
	return &pass{prog: prog, facts: f, soundLoads: soundLoads, used: &bitset.Set{}}
}

// run solves each function to fixpoint, then replays every reachable
// block once with converged entry states, reporting each dereference's
// address (and, for stores, value) non-nullness to visit.
func (p *pass) run(visit func(in *ir.Instr, addrOK, valOK bool)) {
	for _, f := range p.prog.Funcs {
		ins := p.solve(f)
		for _, b := range f.Blocks {
			if ins[b.Index] == nil {
				continue // CFG-unreachable from entry
			}
			p.transfer(b, ins[b.Index].Clone(), visit)
		}
	}
}

// solve runs the forward must-analysis over one function's CFG:
// state = the set of register IDs proven non-null, meet = intersection
// over incoming edges (nil = unvisited = top), with branch-edge
// refinement. Parameters are unknown at entry (the pass is
// intraprocedural).
func (p *pass) solve(f *ir.Function) []*bitset.Set {
	ins := make([]*bitset.Set, len(f.Blocks))
	ins[f.Entry.Index] = &bitset.Set{}
	work := []*ir.Block{f.Entry}
	inWork := make([]bool, len(f.Blocks))
	inWork[f.Entry.Index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false
		outs := p.edgeOuts(b, ins[b.Index].Clone())
		for i, s := range b.Succs {
			var out *bitset.Set
			if i < len(outs) {
				out = outs[i]
			}
			if out == nil {
				out = &bitset.Set{}
			}
			cur := ins[s.Index]
			if cur == nil {
				ins[s.Index] = out.Clone()
			} else if !cur.IntersectWith(out) {
				continue // meet by intersection; re-enqueue only on change
			}
			if !inWork[s.Index] {
				work = append(work, s)
				inWork[s.Index] = true
			}
		}
	}
	return ins
}

// edgeOuts transfers one block and returns the per-successor-edge out
// states, refined by the terminating branch when its condition proves
// a register non-null on one edge.
func (p *pass) edgeOuts(b *ir.Block, st *bitset.Set) []*bitset.Set {
	// def tracks the most recent in-block definition per register, for
	// recognizing `br (x != 0)`-shaped conditions.
	var def map[int]*ir.Instr
	p.transferTrack(b, st, &def)
	term := b.Terminator()
	if term == nil || term.Op != ir.OpBr || len(b.Succs) != 2 {
		outs := make([]*bitset.Set, len(b.Succs))
		for i := range outs {
			outs[i] = st
		}
		return outs
	}
	trueSt, falseSt := st.Clone(), st
	if term.A.Kind == ir.OperVar {
		x := term.A.Var
		// `br x`: the true edge proves x != 0.
		trueSt.Add(x.ID)
		// `br (a != 0)` / `br (a == 0)`: the comparison's operand is
		// proven non-null on the corresponding edge.
		if d, ok := def[x.ID]; ok && d.Op == ir.OpBin {
			if v, lit := compareToZero(d); v != nil {
				switch lit {
				case ir.BinNe:
					trueSt.Add(v.ID)
				case ir.BinEq:
					falseSt.Add(v.ID)
				}
			}
		}
	}
	return []*bitset.Set{trueSt, falseSt}
}

// compareToZero recognizes `v != 0`, `0 != v`, `v == 0`, `0 == v` and
// returns the compared register and the comparison operator.
func compareToZero(in *ir.Instr) (*ir.Var, ir.BinOp) {
	if in.Bin != ir.BinNe && in.Bin != ir.BinEq {
		return nil, 0
	}
	if in.A.Kind == ir.OperVar && in.B.Kind == ir.OperConst && in.B.Const == 0 {
		return in.A.Var, in.Bin
	}
	if in.B.Kind == ir.OperVar && in.A.Kind == ir.OperConst && in.A.Const == 0 {
		return in.B.Var, in.Bin
	}
	return nil, 0
}

// transfer walks one block mutating st, reporting dereferences.
func (p *pass) transfer(b *ir.Block, st *bitset.Set, visit func(in *ir.Instr, addrOK, valOK bool)) {
	var def map[int]*ir.Instr
	p.transferVisit(b, st, &def, visit)
}

// transferTrack is transfer without a visitor, recording in-block defs.
func (p *pass) transferTrack(b *ir.Block, st *bitset.Set, def *map[int]*ir.Instr) {
	p.transferVisit(b, st, def, nil)
}

func (p *pass) transferVisit(b *ir.Block, st *bitset.Set, def *map[int]*ir.Instr, visit func(in *ir.Instr, addrOK, valOK bool)) {
	for _, in := range b.Instrs {
		if visit != nil && (in.Op == ir.OpLoad || in.Op == ir.OpStore) {
			valOK := false
			if in.Op == ir.OpStore {
				valOK = p.operandNonNull(st, in.B)
			}
			visit(in, p.operandNonNull(st, in.A), valOK)
		}
		if in.Dst == nil {
			continue
		}
		nonNull := false
		switch in.Op {
		case ir.OpAlloc:
			nonNull = true // allocation addresses are never 0
		case ir.OpCopy:
			nonNull = p.operandNonNull(st, in.A)
		case ir.OpLoad:
			if p.soundLoads != nil && in.ID < len(p.soundLoads) && p.soundLoads[in.ID] {
				nonNull = true
			} else if p.facts != nil && p.facts.NonNullLoads.Has(in.ID) {
				nonNull = true
				p.used.Add(in.ID)
			}
		}
		if nonNull {
			st.Add(in.Dst.ID)
		} else {
			st.Remove(in.Dst.ID)
		}
		if def != nil {
			if *def == nil {
				*def = map[int]*ir.Instr{}
			}
			(*def)[in.Dst.ID] = in
		}
	}
}

// operandNonNull reports whether an operand is proven non-null under
// st: global and function addresses always are, constants when
// non-zero, registers when the dataflow proved them.
func (p *pass) operandNonNull(st *bitset.Set, op ir.Operand) bool {
	switch op.Kind {
	case ir.OperConst:
		return op.Const != 0
	case ir.OperVar:
		return st.Has(op.Var.ID)
	case ir.OperGlobal, ir.OperFunc:
		return true
	}
	return false
}
