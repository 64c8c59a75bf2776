// Package staticrace implements a Chord-style lockset-based static
// data-race detector (§4.1 of the paper) used to elide FastTrack
// instrumentation.
//
// The detector combines three ingredients:
//
//  1. may-happen-in-parallel (package mhp) to find access pairs that
//     can overlap in time;
//  2. points-to (package pointsto) to find pairs that may alias;
//  3. lockset pruning to discard pairs guarded by a common lock.
//
// As the paper explains, a sound analysis cannot apply lockset pruning
// because a may-alias analysis cannot prove two lock sites hold the
// same lock (§4.2.2) — so the sound variant here (db == nil) skips it,
// like the hybrid analyses built on Chord. The predicated variant uses
// the likely-guarding-locks invariant's must-alias pairs to restore
// the pruning, the likely-singleton-thread invariant to strengthen
// MHP, and likely-unreachable code to shrink everything; it also
// proposes lock/unlock sites for instrumentation elision under the
// no-custom-synchronization invariant (§4.2.4).
package staticrace

import (
	"oha/internal/bitset"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/mhp"
	"oha/internal/pointsto"
)

// Result is the outcome of the static race analysis.
type Result struct {
	Prog *ir.Program

	// Racy holds instr IDs of loads/stores that may participate in a
	// race: these must stay instrumented.
	Racy *bitset.Set

	// Pairs holds the racy access pairs (each [a,b] with a.ID < b.ID).
	Pairs [][2]*ir.Instr

	// AnalyzedAccesses holds the loads/stores the analysis saw.
	// Accesses outside this set were pruned (predicated variant) or
	// statically unreachable.
	AnalyzedAccesses *bitset.Set

	// ElidableSyncs holds lock/unlock instr IDs whose instrumentation
	// the predicated analysis proposes to elide (no instrumented
	// access inside their critical sections). A detector that elides
	// them must treat any race it reports as a potential
	// mis-speculation (§4.2.4). Empty for sound analysis.
	ElidableSyncs *bitset.Set

	// Locksets maps access instr IDs to the lock-site IDs must-held at
	// the access (computed only when db != nil).
	Locksets map[int]*bitset.Set

	// AddrPts maps access instr IDs to the points-to set of the
	// accessed address, precomputed once per analysis.
	AddrPts map[int]*bitset.Set
}

// RaceFree reports whether the program was proven race-free (no racy
// pairs).
func (r *Result) RaceFree() bool { return len(r.Pairs) == 0 }

// Facts is the projection of an invariant database the predicated race
// analysis reads. A nil *Facts is the sound analysis. The elidable lock
// set is not read: Masks applies it to the result.
type Facts struct {
	MustAliasLocks map[invariants.LockPair]bool
}

// FactsOf projects db (nil: the sound analysis).
func FactsOf(db *invariants.DB) *Facts {
	if db == nil {
		return nil
	}
	return &Facts{MustAliasLocks: db.MustAliasLocks}
}

// Digest fingerprints f by its invariant text (invariants.Text).
func (f *Facts) Digest() string {
	if f == nil {
		return "sound"
	}
	return new(invariants.Text).MustAlias(f.MustAliasLocks).Digest()
}

// Analyze runs the detector. pt and m must come from the same
// (sound or predicated) configuration; db selects predication.
func Analyze(prog *ir.Program, pt *pointsto.Result, m *mhp.Result, db *invariants.DB) *Result {
	f := FactsOf(db)
	res, accesses, lockSites := prepare(prog, pt, f)
	for i := 0; i < len(accesses); i++ {
		for j := i; j < len(accesses); j++ {
			if res.racyPair(accesses[i], accesses[j], m, f) {
				res.addPair(accesses[i], accesses[j])
			}
		}
	}
	if f != nil {
		res.computeElidableSyncs(pt, lockSites)
	}
	return res
}

// prepare collects the analyzed accesses and lock sites and
// precomputes the per-access address points-to sets and, when
// predicated, the locksets. Everything that can mutate solver state
// (pt.AddrPtsAll interns nodes) happens here, so pair enumeration
// afterwards is read-only; the parallel enumerator relies on this.
func prepare(prog *ir.Program, pt *pointsto.Result, f *Facts) (*Result, []*ir.Instr, []*ir.Instr) {
	res := &Result{
		Prog:             prog,
		Racy:             &bitset.Set{},
		AnalyzedAccesses: &bitset.Set{},
		ElidableSyncs:    &bitset.Set{},
		Locksets:         map[int]*bitset.Set{},
	}
	var accesses []*ir.Instr
	var lockSites []*ir.Instr
	for _, in := range pt.SeededInstrs() {
		switch {
		case in.IsMemAccess():
			accesses = append(accesses, in)
			res.AnalyzedAccesses.Add(in.ID)
		case in.Op == ir.OpLock:
			lockSites = append(lockSites, in)
		}
	}
	res.AddrPts = make(map[int]*bitset.Set, len(accesses))
	for _, in := range accesses {
		res.AddrPts[in.ID] = pt.AddrPtsAll(in)
	}
	if f != nil {
		res.Locksets = computeLocksets(prog, pt)
	}
	return res, accesses, lockSites
}

// racyPair reports whether the access pair may race. Read-only over
// the result's precomputed state; safe to call from parallel workers.
func (res *Result) racyPair(a, b *ir.Instr, m *mhp.Result, f *Facts) bool {
	if a.Op != ir.OpStore && b.Op != ir.OpStore {
		return false // read/read pairs never race
	}
	if a == b && a.Op != ir.OpStore {
		return false
	}
	if !res.AddrPts[a.ID].Intersects(res.AddrPts[b.ID]) {
		return false
	}
	if !m.MHP(a, b) {
		return false
	}
	return !res.commonLock(a, b, f)
}

// commonLock reports whether a must-held common lock guards both
// accesses (lockset pruning; predicated only — a sound analysis cannot
// prove two lock sites hold the same lock).
func (res *Result) commonLock(a, b *ir.Instr, f *Facts) bool {
	if f == nil {
		return false
	}
	la, lb := res.Locksets[a.ID], res.Locksets[b.ID]
	if la == nil || lb == nil {
		return false
	}
	found := false
	la.ForEach(func(x int) bool {
		lb.ForEach(func(y int) bool {
			if f.MustAliasLocks[invariants.NormPair(x, y)] {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

// addPair records one racy pair (callers enumerate with a.ID <= b.ID).
func (res *Result) addPair(a, b *ir.Instr) {
	res.Pairs = append(res.Pairs, [2]*ir.Instr{a, b})
	res.Racy.Add(a.ID)
	res.Racy.Add(b.ID)
}

// computeLocksets runs a must-held-lockset dataflow: for every
// instruction, the set of lock-site IDs certainly held when it
// executes. Interprocedural entry states are the intersection over all
// call sites; intraprocedural joins intersect over predecessors.
func computeLocksets(prog *ir.Program, pt *pointsto.Result) map[int]*bitset.Set {
	// mayRelease[u] = lock sites an unlock may release (alias-based).
	var locks, unlocks []*ir.Instr
	for _, in := range pt.SeededInstrs() {
		switch in.Op {
		case ir.OpLock:
			locks = append(locks, in)
		case ir.OpUnlock:
			unlocks = append(unlocks, in)
		}
	}
	lockAddr := map[int]*bitset.Set{}
	for _, l := range locks {
		lockAddr[l.ID] = pt.AddrPtsAll(l)
	}
	mayRelease := map[int]*bitset.Set{}
	for _, u := range unlocks {
		ua := pt.AddrPtsAll(u)
		rel := &bitset.Set{}
		for _, l := range locks {
			if ua.Intersects(lockAddr[l.ID]) {
				rel.Add(l.ID)
			}
		}
		mayRelease[u.ID] = rel
	}

	// Universe of lock sites, used as the "unvisited" top element of
	// the must-held lattice.
	top := &bitset.Set{}
	for _, l := range locks {
		top.Add(l.ID)
	}

	held := map[int]*bitset.Set{} // instr ID -> must-held at entry to instr
	entry := map[int]*bitset.Set{}
	for _, f := range prog.Funcs {
		entry[f.ID] = nil // nil: unvisited (top)
	}
	entry[prog.Main().ID] = &bitset.Set{}

	// Iterate to fixpoint over functions.
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			if entry[f.ID] == nil {
				continue
			}
			// Intraprocedural forward must-analysis.
			blockIn := make([]*bitset.Set, len(f.Blocks))
			blockIn[f.Entry.Index] = entry[f.ID].Clone()
			// Simple round-robin iteration.
			for pass := true; pass; {
				pass = false
				for _, b := range f.Blocks {
					in := blockIn[b.Index]
					if b != f.Entry {
						in = nil
						for _, p := range b.Preds {
							out := blockOut(p, blockIn[p.Index], mayRelease, top)
							if out == nil {
								continue
							}
							if in == nil {
								in = out.Clone()
							} else {
								in.IntersectWith(out)
							}
						}
					}
					if in == nil {
						continue
					}
					if blockIn[b.Index] == nil || !blockIn[b.Index].Equal(in) {
						blockIn[b.Index] = in
						pass = true
					}
				}
			}
			// Record per-instruction held sets; propagate to callees.
			for _, b := range f.Blocks {
				cur := blockIn[b.Index]
				if cur == nil {
					continue
				}
				cur = cur.Clone()
				for _, in := range b.Instrs {
					if prev, ok := held[in.ID]; !ok || !prev.Equal(cur) {
						held[in.ID] = cur.Clone()
					}
					switch in.Op {
					case ir.OpLock:
						cur.Add(in.ID)
					case ir.OpUnlock:
						if rel := mayRelease[in.ID]; rel != nil {
							cur.DifferenceWith(rel)
						}
					case ir.OpCall:
						for _, g := range pt.FnCallees(in) {
							if entry[g.ID] == nil {
								entry[g.ID] = cur.Clone()
								changed = true
							} else if entry[g.ID].IntersectWith(cur) {
								changed = true
							}
						}
					case ir.OpSpawn:
						// A new thread starts with no locks held.
						for _, g := range pt.FnCallees(in) {
							if entry[g.ID] == nil {
								entry[g.ID] = &bitset.Set{}
								changed = true
							} else if entry[g.ID].IntersectWith(&bitset.Set{}) {
								changed = true
							}
						}
					}
				}
			}
		}
	}
	return held
}

// blockOut computes the must-held set at the end of a block given its
// entry set.
func blockOut(b *ir.Block, in *bitset.Set, mayRelease map[int]*bitset.Set, top *bitset.Set) *bitset.Set {
	if in == nil {
		return nil
	}
	out := in.Clone()
	for _, instr := range b.Instrs {
		switch instr.Op {
		case ir.OpLock:
			out.Add(instr.ID)
		case ir.OpUnlock:
			if rel := mayRelease[instr.ID]; rel != nil {
				out.DifferenceWith(rel)
			}
		}
	}
	_ = top
	return out
}

// computeElidableSyncs proposes lock/unlock sites for elision: a lock
// object is elidable when none of its lock sites guards any
// still-instrumented (racy) access; every lock/unlock site whose
// address can only denote elidable objects is proposed.
func (res *Result) computeElidableSyncs(pt *pointsto.Result, lockSites []*ir.Instr) {
	// guardsRacy[l] = lock site l is in some racy access's lockset.
	guardsRacy := map[int]bool{}
	res.Racy.ForEach(func(accID int) bool {
		if ls := res.Locksets[accID]; ls != nil {
			ls.ForEach(func(l int) bool {
				guardsRacy[l] = true
				return true
			})
		}
		return true
	})
	// An abstract object is elidable iff all lock sites that may lock
	// it guard nothing racy.
	badObjs := &bitset.Set{}
	for _, l := range lockSites {
		if guardsRacy[l.ID] {
			badObjs.UnionWith(pt.AddrPtsAll(l))
		}
	}
	for _, in := range pt.SeededInstrs() {
		if in.Op != ir.OpLock && in.Op != ir.OpUnlock {
			continue
		}
		if !pt.AddrPtsAll(in).Intersects(badObjs) {
			res.ElidableSyncs.Add(in.ID)
		}
	}
}
