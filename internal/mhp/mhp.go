// Package mhp implements the may-happen-in-parallel analysis that
// underlies the Chord-style static race detector (§4.1 of the paper).
//
// The abstraction: every instruction belongs to one or more "thread
// roots" — the main thread, or a spawn site (× its callee). Two
// instructions may happen in parallel when they belong to concurrent
// roots: two distinct roots are always considered concurrent
// (join-insensitive, like Chord — this is why fork-join/barrier
// programs such as the montecarlo and sunflow models defeat the
// detector, exactly as in the paper), and a single spawn-site root is
// self-concurrent unless the site provably spawns at most one thread.
//
// Statically proving a spawn site singleton is hard (§4.2.3: it can
// require "understanding of complex program properties such as loop
// bounds, reflection, and even possible user inputs"); the sound
// analysis only proves it for spawn sites in main that sit outside any
// CFG cycle, while the predicated analysis simply assumes the likely
// singleton-thread invariant.
package mhp

import (
	"oha/internal/bitset"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/pointsto"
)

// rootMain is the root id of the main thread; spawn-site roots follow.
const rootMain = 0

// Result answers MHP queries.
type Result struct {
	prog *ir.Program
	// roots[f] = set of thread roots whose closure includes function f.
	roots []*bitset.Set
	// multi[r] = the root may have multiple simultaneous threads.
	multi []bool
	// order[r] = fork-join ordering info for singleton roots spawned
	// directly by main (nil when unavailable).
	order   []*forkJoin
	reach   *ir.Reach
	mainDom []*bitset.Set // dominator sets of main's blocks
}

// forkJoin captures the ordering a singleton spawn in main provides:
// main-thread instructions that cannot execute after the spawn happen
// before the thread; instructions dominated by a matching join happen
// after it.
type forkJoin struct {
	spawn *ir.Instr
	joins []*ir.Instr
}

// Facts is the projection of an invariant database the predicated MHP
// analysis reads. A nil *Facts is the sound analysis.
type Facts struct {
	SingletonSpawns *bitset.Set
}

// FactsOf projects db (nil: the sound analysis).
func FactsOf(db *invariants.DB) *Facts {
	if db == nil {
		return nil
	}
	return &Facts{SingletonSpawns: db.SingletonSpawns}
}

// Digest fingerprints f by its invariant text (invariants.Text).
func (f *Facts) Digest() string {
	if f == nil {
		return "sound"
	}
	return new(invariants.Text).Singletons(f.SingletonSpawns).Digest()
}

// Analyze computes thread roots and concurrency. pt supplies the call
// graph (already predicated if pt was). db non-nil additionally
// assumes the likely singleton-thread invariant. The CFG facts it
// consults (reachability, main's dominators, matching joins) are
// computed per call: a table memoizing them per program would keep
// every analyzed program alive.
func Analyze(prog *ir.Program, pt *pointsto.Result, db *invariants.DB) *Result {
	f := FactsOf(db)
	r := &Result{prog: prog}
	reach := ir.ComputeReach(prog)

	// Roots: main + each analyzed spawn site.
	type rootInfo struct {
		site  *ir.Instr
		funcs []*ir.Function
	}
	roots := []rootInfo{{site: nil, funcs: []*ir.Function{prog.Main()}}}
	for _, in := range prog.Instrs {
		if in.Op != ir.OpSpawn || !pt.Analyzed(in) {
			continue
		}
		callees := pt.FnCallees(in)
		if len(callees) > 0 {
			roots = append(roots, rootInfo{site: in, funcs: callees})
		}
	}

	// Call-edge closure per root (spawn edges do not extend a root:
	// the spawned code belongs to the spawn site's root).
	r.roots = make([]*bitset.Set, len(prog.Funcs))
	for i := range r.roots {
		r.roots[i] = &bitset.Set{}
	}
	calleesOf := func(f *ir.Function) []*ir.Function {
		var out []*ir.Function
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && pt.Analyzed(in) {
					out = append(out, pt.FnCallees(in)...)
				}
			}
		}
		return out
	}
	for rid, info := range roots {
		var stack []*ir.Function
		seen := map[int]bool{}
		for _, f := range info.funcs {
			stack = append(stack, f)
			seen[f.ID] = true
		}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r.roots[f.ID].Add(rid)
			for _, g := range calleesOf(f) {
				if !seen[g.ID] {
					seen[g.ID] = true
					stack = append(stack, g)
				}
			}
		}
	}

	// Multiplicity per root.
	mainCalled := false
	for _, in := range prog.Instrs {
		if in.Op == ir.OpCall && pt.Analyzed(in) {
			for _, f := range pt.FnCallees(in) {
				if f == prog.Main() {
					mainCalled = true
				}
			}
		}
	}
	r.multi = make([]bool, len(roots))
	r.order = make([]*forkJoin, len(roots))
	r.reach = reach
	r.mainDom = ir.Dominators(prog.Main())
	for rid, info := range roots[1:] {
		in := info.site
		if f != nil {
			// Predicated: assume the likely singleton-thread invariant.
			r.multi[rid+1] = !f.SingletonSpawns.Has(in.ID)
		} else {
			// Sound: singleton only if the site is in main (which runs
			// once and is never called) and outside any CFG cycle.
			singleton := in.Block.Fn == prog.Main() && !mainCalled && !inCycle(reach, in.Block)
			r.multi[rid+1] = !singleton
		}
		// Fork-join ordering applies to singleton spawns issued
		// directly by main: find the joins that certainly wait for
		// this spawn's thread.
		if !r.multi[rid+1] && in.Block.Fn == prog.Main() && !mainCalled && !inCycle(reach, in.Block) {
			r.order[rid+1] = &forkJoin{spawn: in, joins: matchingJoins(prog.Main(), in)}
		}
	}
	return r
}

// matchingJoins returns the join instructions in fn that certainly
// join the thread created by spawn: joins whose operand register
// resolves — through single-definition copy chains — to that spawn
// instruction's result.
func matchingJoins(fn *ir.Function, spawn *ir.Instr) []*ir.Instr {
	if spawn.Dst == nil {
		return nil
	}
	// uniqueDef[v] = v's only defining instruction, or nil if several.
	uniqueDef := make(map[*ir.Var]*ir.Instr)
	multi := make(map[*ir.Var]bool)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst == nil {
				continue
			}
			if _, seen := uniqueDef[in.Dst]; seen {
				multi[in.Dst] = true
			}
			uniqueDef[in.Dst] = in
		}
	}
	// resolves reports whether v's value is certainly spawn's result.
	resolves := func(v *ir.Var) bool {
		for hops := 0; hops < 32; hops++ {
			if multi[v] {
				return false
			}
			def := uniqueDef[v]
			if def == nil {
				return false
			}
			if def == spawn {
				return true
			}
			if def.Op == ir.OpCopy && def.A.Kind == ir.OperVar {
				v = def.A.Var
				continue
			}
			return false
		}
		return false
	}
	var joins []*ir.Instr
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpJoin && in.A.Kind == ir.OperVar && resolves(in.A.Var) {
				joins = append(joins, in)
			}
		}
	}
	return joins
}

func inCycle(reach *ir.Reach, b *ir.Block) bool {
	for _, s := range b.Succs {
		if reach.BlockReaches(s, b) {
			return true
		}
	}
	return false
}

// concurrent reports whether two roots can have threads running at the
// same time.
func (r *Result) concurrent(r1, r2 int) bool {
	if r1 != r2 {
		// Join-insensitive: any two distinct roots may overlap.
		return true
	}
	if r1 == rootMain {
		return false
	}
	return r.multi[r1]
}

// MHP reports whether two instructions may execute in parallel.
func (r *Result) MHP(a, b *ir.Instr) bool {
	ra := r.roots[a.Block.Fn.ID]
	rb := r.roots[b.Block.Fn.ID]
	ok := false
	ra.ForEach(func(x int) bool {
		rb.ForEach(func(y int) bool {
			if r.concurrent(x, y) && !r.forkJoinOrdered(a, x, b, y) {
				ok = true
			}
			return !ok
		})
		return !ok
	})
	return ok
}

// forkJoinOrdered refines a concurrent root pair: an instruction in
// main is ordered with a singleton thread when it cannot execute after
// the spawn (happens-before the thread starts) or is dominated by a
// join of that thread (happens-after it ends).
func (r *Result) forkJoinOrdered(a *ir.Instr, x int, b *ir.Instr, y int) bool {
	if x == rootMain && y != rootMain {
		return r.mainOrderedWithRoot(a, y)
	}
	if y == rootMain && x != rootMain {
		return r.mainOrderedWithRoot(b, x)
	}
	return false
}

func (r *Result) mainOrderedWithRoot(mainInstr *ir.Instr, root int) bool {
	fj := r.order[root]
	if fj == nil || mainInstr.Block.Fn != r.prog.Main() {
		return false
	}
	// Before the spawn: the spawn can never precede the instruction.
	if !r.reach.MayPrecede(fj.spawn, mainInstr) {
		return true
	}
	// After a join of this thread.
	for _, j := range fj.joins {
		if ir.InstrDominates(r.mainDom, j, mainInstr) {
			return true
		}
	}
	return false
}

// RootsOf returns the thread-root ids of a function (diagnostics).
func (r *Result) RootsOf(f *ir.Function) *bitset.Set { return r.roots[f.ID] }

// NumRoots returns the number of thread roots (main + spawn sites).
func (r *Result) NumRoots() int { return len(r.multi) }
