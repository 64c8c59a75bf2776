package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/mhp"
	"oha/internal/nullcheck"
	"oha/internal/pointsto"
	"oha/internal/staticrace"
	"oha/internal/workloads"
)

// perturbation is a variant of a profiled database one fact away from
// it. kind is the violation kind whose Refine made it, or "" for a
// change no refinement makes.
type perturbation struct {
	name string
	kind ViolationKind
	db   *invariants.DB
}

// perturbations returns the variants of db, a profiled database of
// prog: Violation.Refine of every fact of a refinable kind db holds;
// the opposite change (a fact added or an unvisited block) wherever
// prog admits one; and nil or empty Callees and nil Contexts (the
// invariant switched off).
func perturbations(prog *ir.Program, db *invariants.DB) []perturbation {
	var out []perturbation
	with := func(name string, id int, edit func(*invariants.DB)) {
		c := db.Clone()
		edit(c)
		out = append(out, perturbation{name: fmt.Sprintf("%s-%d", name, id), db: c})
	}
	refine := func(v Violation) {
		if c := db.Clone(); v.Refine(prog, c) {
			out = append(out, perturbation{name: v.FactKey(), kind: v.Kind, db: c})
		}
	}
	for _, b := range prog.Blocks {
		if !db.Visited.Has(b.ID) {
			refine(Violation{Kind: ViolationUnreachableBlock, Site: b.ID, Callee: -1})
		} else if b.ID != b.Fn.Entry.ID {
			with("unvisit-block", b.ID, func(c *invariants.DB) { c.Visited.Remove(b.ID) })
		}
	}
	refine(Violation{Kind: ViolationElidedLockRace, Site: -1, Callee: -1})
	for _, in := range prog.Instrs {
		switch in.Op {
		case ir.OpSpawn:
			refine(Violation{Kind: ViolationSingletonSpawn, Site: in.ID, Callee: -1})
			with("add-singleton-spawn", in.ID, func(c *invariants.DB) { c.SingletonSpawns.Add(in.ID) })
		case ir.OpLock:
			refine(Violation{Kind: ViolationGuardingLock, Site: in.ID, Callee: -1})
			with("add-must-alias", in.ID, func(c *invariants.DB) { c.MustAliasLocks[invariants.NormPair(in.ID, in.ID)] = true })
			with("add-elidable-lock", in.ID, func(c *invariants.DB) { c.ElidableLocks.Add(in.ID) })
		case ir.OpLoad:
			refine(Violation{Kind: ViolationNonNull, Site: in.ID, Callee: -1})
			with("add-non-null-load", in.ID, func(c *invariants.DB) { c.NonNullLoads.Add(in.ID) })
		}
		if in.Op != ir.OpCall && in.Op != ir.OpSpawn {
			continue
		}
		refine(Violation{Kind: ViolationCallContext, Site: in.ID, Callee: -1, Path: []int{in.ID}})
		if in.Callee == nil {
			for _, fn := range prog.Funcs {
				if set := db.Callees[in.ID]; set == nil || !set.Has(fn.ID) {
					refine(Violation{Kind: ViolationCalleeSet, Site: in.ID, Callee: fn.ID})
					break
				}
			}
			with("drop-callee-site", in.ID, func(c *invariants.DB) { delete(c.Callees, in.ID) })
		}
	}
	with("callees-off", 0, func(c *invariants.DB) { c.Callees = nil })
	with("callees-empty", 0, func(c *invariants.DB) { c.Callees = map[int]*bitset.Set{} })
	with("contexts-off", 0, func(c *invariants.DB) { c.Contexts = nil })
	return out
}

// solveKinds are the artifact kinds of the static solves, in pipeline
// order.
var solveKinds = []string{artifacts.KindPointsTo, artifacts.KindMHP, artifacts.KindStaticRace,
	artifacts.KindNullProof, artifacts.KindSlicer, artifacts.KindSlice}

// solveKeys returns the cache key of every static solve of prog under
// db by artifact kind, the slice being crit's at workCountBudget.
func solveKeys(prog *ir.Program, db *invariants.DB, crit *ir.Instr) map[string]string {
	k := StaticKeysOf(prog, db)
	slicer := SlicerFactsOf(db, workCountBudget).key(prog)
	return map[string]string{
		artifacts.KindPointsTo: k.PointsTo, artifacts.KindMHP: k.MHP, artifacts.KindStaticRace: k.StaticRace,
		artifacts.KindNullProof: k.NullProof, artifacts.KindSlicer: slicer,
		artifacts.KindSlice: staticSliceKey(prog, slicer, crit),
	}
}

// solveResults solves every static analysis of prog under db, uncached,
// and fingerprints each result by artifact kind; the slicer's is its
// analysis type and the static slice of every print, the slice's that
// of crit.
func solveResults(t *testing.T, prog *ir.Program, db *invariants.DB, crit *ir.Instr) map[string]string {
	t.Helper()
	pt, err := pointsto.Analyze(prog, ctxs.NewCI(prog), db)
	if err != nil {
		t.Fatal(err)
	}
	m := mhp.Analyze(prog, pt, db)
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	null := nullcheck.Analyze(prog, pt, db)
	sl, at, err := BuildSlicer(prog, SlicerFactsOf(db, workCountBudget), nil)
	if err != nil {
		t.Fatal(err)
	}
	slices := string(at)
	for _, in := range Prints(prog) {
		slices += " " + sl.BackwardSlice(in).Instrs.String()
	}
	return map[string]string{
		artifacts.KindPointsTo:   pt.CanonicalDigest(),
		artifacts.KindMHP:        string(wire),
		artifacts.KindStaticRace: staticrace.Analyze(prog, pt, m, db).CanonicalDigest(),
		artifacts.KindNullProof:  fmt.Sprint(null.Discharged, null.UsedFacts, null.DerefSites),
		artifacts.KindSlicer:     slices,
		artifacts.KindSlice:      string(at) + " " + sl.BackwardSlice(crit).Instrs.String(),
	}
}

// TestSolveKeysComplete: every static solve's cache key is complete
// over the facts it reads. On workloads with indirect calls, spawns,
// locks and call contexts, for the profiled database and each
// perturbation of it, two databases with the same key for a solve
// (points-to, MHP, static race, null proof, slicer, static slice) have
// the same result for it; so a changed result always comes with a
// changed key. Every solve's result changes under some perturbation.
func TestSolveKeysComplete(t *testing.T) {
	changed := map[string]int{}
	for _, name := range []string{"dispatch-mono", "dispatch-poly", "go", "perl", "redis", "sphinx", "vim"} {
		w := workloads.ByName(name)
		prog := w.Prog()
		execs := make([]Execution, 8)
		for run := range execs {
			execs[run] = workCountProfileExec(w, run)
		}
		base, err := ProfileNWith(prog, execs, 1, nil)
		if err != nil {
			t.Fatalf("%s: profile: %v", name, err)
		}
		crit := workCountCriterion(prog)
		baseResults := solveResults(t, prog, base, crit)
		resultOf := map[string]string{} // key -> result
		nameOf := map[string]string{}   // key -> first variant with it
		for kind, key := range solveKeys(prog, base, crit) {
			resultOf[key], nameOf[key] = baseResults[kind], "profiled"
		}
		for _, p := range perturbations(prog, base) {
			keys, results := solveKeys(prog, p.db, crit), solveResults(t, prog, p.db, crit)
			for kind, result := range results {
				key := keys[kind]
				if prev, ok := resultOf[key]; !ok {
					resultOf[key], nameOf[key] = result, p.name
				} else if prev != result {
					t.Errorf("%s: %s and %s share a %s key but their %s results differ", name, nameOf[key], p.name, kind, kind)
				}
				if result != baseResults[kind] {
					changed[kind]++
				}
			}
		}
	}
	for _, kind := range solveKinds {
		if changed[kind] == 0 {
			t.Errorf("no perturbation changed the %s result; the test shows nothing for it", kind)
		}
	}
}

// TestRefinementMissesPerKind: one Violation.Refine of a fact of each
// refinable kind makes the next solve of every static analysis miss the
// cache exactly for the solves that read that kind, on dispatch-mono,
// whose profile holds facts of every kind. The misses are counted by
// key, and the cache's own miss counter must agree with the count.
func TestRefinementMissesPerKind(t *testing.T) {
	all := solveKinds
	want := map[ViolationKind][]string{
		ViolationUnreachableBlock: all,
		ViolationCalleeSet:        all,
		ViolationSingletonSpawn:   {artifacts.KindMHP, artifacts.KindStaticRace},
		ViolationGuardingLock:     {artifacts.KindStaticRace},
		ViolationCallContext:      {artifacts.KindSlicer, artifacts.KindSlice},
		ViolationNonNull:          {artifacts.KindNullProof},
		ViolationElidedLockRace:   nil,
	}
	w := workloads.ByName("dispatch-mono")
	prog := w.Prog()
	execs := make([]Execution, 8)
	for run := range execs {
		execs[run] = workCountProfileExec(w, run)
	}
	db, err := ProfileNWith(prog, execs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	crit := workCountCriterion(prog)
	solve := func(db *invariants.DB, cache *artifacts.Cache) {
		t.Helper()
		cfg := StaticConfig{Cache: cache, Workers: 1}
		if _, err := analyzeRaceStatic(prog, db, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := nullProofFor(prog, db, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := staticSliceFor(prog, SlicerFactsOf(db, workCountBudget), crit, cache); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[ViolationKind]bool{}
	for _, p := range perturbations(prog, db) {
		if p.kind == "" || seen[p.kind] {
			continue
		}
		seen[p.kind] = true
		cache := artifacts.New("")
		solve(db, cache)
		var missed []string
		for kind, key := range solveKeys(prog, p.db, crit) {
			if _, ok := cache.Peek(key); !ok {
				missed = append(missed, kind)
			}
		}
		before := cache.Stats().Misses
		solve(p.db, cache)
		if got := cache.Stats().Misses - before; got != uint64(len(missed)) {
			t.Errorf("%s: the cache missed %d times, the keys %d (%v)", p.name, got, len(missed), missed)
		}
		sort.Slice(missed, func(i, j int) bool { return slices.Index(all, missed[i]) < slices.Index(all, missed[j]) })
		if !slices.Equal(missed, want[p.kind]) {
			t.Errorf("%s: re-solving missed %v, want %v", p.name, missed, want[p.kind])
		}
	}
	for kind := range want {
		if !seen[kind] {
			t.Errorf("dispatch-mono's profile holds no %s fact to refine", kind)
		}
	}
}
