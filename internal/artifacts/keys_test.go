package artifacts_test

import (
	"fmt"
	"sort"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/pointsto"
	"oha/internal/profile"
	"oha/internal/workloads"
)

// perturbations returns variants of db, a profiled database of prog,
// that each change one field by one fact, named by the change.
func perturbations(prog *ir.Program, db *invariants.DB) map[string]*invariants.DB {
	out := map[string]*invariants.DB{}
	with := func(name string, id int, edit func(*invariants.DB)) {
		c := db.Clone()
		edit(c)
		out[fmt.Sprintf("%s-%d", name, id)] = c
	}
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			if !db.Visited.Has(b.ID) {
				with("visit-unvisited-block", b.ID, func(c *invariants.DB) { c.Visited.Add(b.ID) })
			} else if b.ID != fn.Entry.ID {
				with("unvisit-block", b.ID, func(c *invariants.DB) { c.Visited.Remove(b.ID) })
			}
		}
	}
	for p := range db.MustAliasLocks {
		with("drop-must-alias", p.A, func(c *invariants.DB) { delete(c.MustAliasLocks, p) })
		break
	}
	for _, in := range prog.Instrs {
		switch {
		case in.Op == ir.OpSpawn && db.SingletonSpawns.Has(in.ID):
			with("drop-singleton-spawn", in.ID, func(c *invariants.DB) { c.SingletonSpawns.Remove(in.ID) })
		case in.Op == ir.OpSpawn:
			with("add-singleton-spawn", in.ID, func(c *invariants.DB) { c.SingletonSpawns.Add(in.ID) })
		case in.Op == ir.OpLock:
			with("add-elidable-lock", in.ID, func(c *invariants.DB) { c.ElidableLocks.Add(in.ID) })
			with("add-must-alias", in.ID, func(c *invariants.DB) { c.MustAliasLocks[invariants.NormPair(in.ID, in.ID)] = true })
		case in.Op == ir.OpLoad:
			with("flip-non-null-load", in.ID, func(c *invariants.DB) {
				if !c.NonNullLoads.Remove(in.ID) {
					c.NonNullLoads.Add(in.ID)
				}
			})
		case (in.Op == ir.OpCall || in.Op == ir.OpSpawn) && in.Callee == nil:
			with("drop-callee-site", in.ID, func(c *invariants.DB) { delete(c.Callees, in.ID) })
			with("widen-callee-site", in.ID, func(c *invariants.DB) { c.WidenCallees(in.ID, prog.Main().ID) })
			with("add-context", in.ID, func(c *invariants.DB) { c.Contexts.Add([]int{in.ID}) })
		}
	}
	with("callees-off", 0, func(c *invariants.DB) { c.Callees = nil })
	with("callees-empty", 0, func(c *invariants.DB) { c.Callees = map[int]*bitset.Set{} })
	return out
}

// TestPointsToKeyComplete: the points-to cache key is complete over the
// invariant database. On every workload with indirect calls, for the
// profiled database and each one-field perturbation of it (nil and
// empty Callees included), two databases with the same
// RaceKey(KindPointsTo) have the same predicated points-to result; a
// changed result always comes with a changed key.
func TestPointsToKeyComplete(t *testing.T) {
	for _, name := range []string{"dispatch-mono", "dispatch-poly", "go", "perl", "redis", "vim"} {
		w := workloads.ByName(name)
		prog := w.Prog()
		var runs []*invariants.DB
		for run := 0; run < 8; run++ {
			db, err := profile.Run(prog, w.GenInput(run), uint64(run+1))
			if err != nil {
				t.Fatalf("%s: profile: %v", name, err)
			}
			runs = append(runs, db)
		}
		base := invariants.Merge(runs...)
		if len(base.Callees) == 0 {
			t.Fatalf("%s: profiled no indirect call site", name)
		}
		baseKey := artifacts.RaceKey(artifacts.KindPointsTo, prog, base)
		digestOf := map[string]string{baseKey: ptDigest(t, prog, base)} // key -> points-to digest
		nameOf := map[string]string{baseKey: "profiled"}                // key -> first variant with it
		variants := perturbations(prog, base)
		names := make([]string, 0, len(variants))
		for vname := range variants {
			names = append(names, vname)
		}
		sort.Strings(names)
		changed := 0
		for _, vname := range names {
			db := variants[vname]
			key, digest := artifacts.RaceKey(artifacts.KindPointsTo, prog, db), ptDigest(t, prog, db)
			if prev, ok := digestOf[key]; !ok {
				digestOf[key], nameOf[key] = digest, vname
			} else if prev != digest {
				t.Errorf("%s: %s and %s share a points-to key but their points-to results differ", name, nameOf[key], vname)
			}
			if digest != digestOf[baseKey] {
				changed++
			}
		}
		if changed == 0 {
			t.Errorf("%s: no perturbation changed the points-to result; the test shows nothing", name)
		}
	}
}

// ptDigest solves the context-insensitive predicated points-to
// analysis of prog under db and digests it.
func ptDigest(t *testing.T, prog *ir.Program, db *invariants.DB) string {
	t.Helper()
	pt, err := pointsto.Analyze(prog, ctxs.NewCI(prog), db)
	if err != nil {
		t.Fatal(err)
	}
	return pt.CanonicalDigest()
}
