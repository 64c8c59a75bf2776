package profile

import (
	"testing"

	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
)

// findInstrs returns the instr IDs with the given opcode.
func findInstrs(p *ir.Program, op ir.Op) []int {
	var out []int
	for _, in := range p.Instrs {
		if in.Op == op {
			out = append(out, in.ID)
		}
	}
	return out
}

func TestVisitedBlocksAndLUC(t *testing.T) {
	p := lang.MustCompile(`
		func rare() { print(1); }
		func main() {
			if (input(0)) { rare(); } else { print(0); }
		}
	`)
	db, err := Run(p, []int64{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// rare() was not called: its blocks are likely-unreachable.
	rare := p.FuncByName["rare"]
	for _, b := range rare.Blocks {
		if db.Visited.Has(b.ID) {
			t.Errorf("rare block %d marked visited", b.ID)
		}
	}
	// main's entry must be visited.
	if !db.Visited.Has(p.Main().Entry.ID) {
		t.Error("main entry marked unreachable")
	}

	// Profile the other path too; after merging nothing in rare is LUC.
	db2, err := Run(p, []int64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged := invariants.Merge(db, db2)
	for _, b := range rare.Blocks {
		if !merged.Visited.Has(b.ID) {
			t.Errorf("rare block %d still unreachable after merge", b.ID)
		}
	}
}

func TestGuardingLockPairs(t *testing.T) {
	p := lang.MustCompile(`
		global m1 = 0;
		global m2 = 0;
		func a() { lock(&m1); unlock(&m1); }
		func b() { lock(&m1); unlock(&m1); }
		func c() { lock(&m2); unlock(&m2); }
		func d(which) {
			// This site locks m1 or m2 depending on input: no single
			// dynamic object, so it must pair with nobody.
			var p = &m1;
			if (which) { p = &m2; }
			lock(p); unlock(p);
		}
		func main() {
			a(); b(); c();
			d(0); d(1);
		}
	`)
	db, err := Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	locks := findInstrs(p, ir.OpLock)
	if len(locks) != 4 {
		t.Fatalf("lock sites = %d, want 4", len(locks))
	}
	// Sites in a and b both lock only m1: must-alias pair.
	if !db.MustAliasLocks[invariants.NormPair(locks[0], locks[1])] {
		t.Errorf("a/b lock sites not must-alias: %v", db.MustAliasLocks)
	}
	// a and c lock different objects.
	if db.MustAliasLocks[invariants.NormPair(locks[0], locks[2])] {
		t.Error("a/c lock sites must-alias")
	}
	// d's polymorphic site pairs with nothing.
	if db.MustAliasLocks[invariants.NormPair(locks[3], locks[0])] || db.MustAliasLocks[invariants.NormPair(locks[3], locks[2])] {
		t.Error("polymorphic site got must-alias pair")
	}
}

func TestSingletonSpawns(t *testing.T) {
	p := lang.MustCompile(`
		global g = 0;
		func w() { g = g + 1; }
		func main() {
			var t1 = spawn w();    // singleton site
			join(t1);
			var i = 0;
			while (i < 3) {
				var t = spawn w(); // multi site
				join(t);
				i = i + 1;
			}
		}
	`)
	db, err := Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	spawns := findInstrs(p, ir.OpSpawn)
	if len(spawns) != 2 {
		t.Fatalf("spawn sites = %d, want 2", len(spawns))
	}
	if !db.SingletonSpawns.Has(spawns[0]) {
		t.Error("single-instance site not singleton")
	}
	if db.SingletonSpawns.Has(spawns[1]) {
		t.Error("looped spawn site marked singleton")
	}
}

func TestCalleeSets(t *testing.T) {
	p := lang.MustCompile(`
		global fp = 0;
		func f(x) { return x; }
		func g(x) { return x + 1; }
		func h(x) { return x + 2; }
		func call() { print(fp(1)); } // one indirect site, two targets
		func main() {
			fp = f;
			call();
			fp = g;
			call();
			print(h(1)); // direct: not a callee-set site
		}
	`)
	db, err := Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Callees) != 1 {
		t.Fatalf("callee sites = %d, want 1 (indirect only): %v", len(db.Callees), db.Callees)
	}
	for _, set := range db.Callees {
		if set.Len() != 2 {
			t.Errorf("callee set = %v, want {f,g}", set)
		}
		if !set.Has(p.FuncByName["f"].ID) || !set.Has(p.FuncByName["g"].ID) {
			t.Errorf("callee set members wrong: %v", set)
		}
	}
}

func TestCallContexts(t *testing.T) {
	p := lang.MustCompile(`
		func leaf() { return 1; }
		func mid() { return leaf(); }
		func main() {
			print(mid());     // context: [call mid, call leaf]
			print(leaf());    // context: [call leaf@main]
		}
	`)
	db, err := Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Contexts: empty (main), [mid], [mid,leaf], [leaf@main] = 4.
	if db.Contexts.Len() != 4 {
		t.Errorf("contexts = %d, want 4: %v", db.Contexts.Len(), db.Contexts.SortedPaths())
	}
	if !db.Contexts.Has(nil) {
		t.Error("empty context missing")
	}
}

func TestRecursionCollapsesContexts(t *testing.T) {
	p := lang.MustCompile(`
		func r(n) {
			if (n <= 0) { return 0; }
			return r(n - 1) + 1;
		}
		func main() { print(r(25)); }
	`)
	db, err := Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Deep recursion must not create deep contexts: only the empty
	// context and the first entry into r.
	if db.Contexts.Len() != 2 {
		t.Errorf("contexts = %d, want 2 (recursion collapsed): %v",
			db.Contexts.Len(), db.Contexts.SortedPaths())
	}
	for _, path := range db.Contexts.SortedPaths() {
		if len(path) > 1 {
			t.Errorf("recursive context not collapsed: %v", path)
		}
	}
}

func TestSpawnedThreadContexts(t *testing.T) {
	p := lang.MustCompile(`
		func leaf() { return 2; }
		func w() { print(leaf()); }
		func main() {
			var t = spawn w();
			join(t);
		}
	`)
	db, err := Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Contexts: [], [spawn w], [spawn w, call leaf].
	if db.Contexts.Len() != 3 {
		t.Errorf("contexts = %d, want 3: %v", db.Contexts.Len(), db.Contexts.SortedPaths())
	}
}

func TestNonNullLoads(t *testing.T) {
	p := lang.MustCompile(`
		global buf[4];
		global good = 0;
		global bad = 0;
		func main() {
			good = &buf;
			var a = good;  // always loads non-null
			*a = 1;
			var b = bad;   // loads 0 on this run
			if (b != 0) { print(*b); }
		}
	`)
	db, err := Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := findInstrs(p, ir.OpLoad)
	if len(loads) < 3 {
		t.Fatalf("load sites = %d, want >= 3", len(loads))
	}
	var goodID, badID = -1, -1
	for _, id := range loads {
		a := p.Instrs[id].A
		if a.Kind != ir.OperGlobal {
			continue
		}
		switch a.Global.Name {
		case "good":
			goodID = id
		case "bad":
			badID = id
		}
	}
	if goodID < 0 || badID < 0 {
		t.Fatalf("global load sites not found: good=%d bad=%d", goodID, badID)
	}
	if !db.NonNullLoads.Has(goodID) {
		t.Error("always-non-null load site missing from NonNullLoads")
	}
	if db.NonNullLoads.Has(badID) {
		t.Error("observed-zero load site present in NonNullLoads")
	}
	// The guarded *b deref never executed: its load site (through
	// register b) trivially qualifies, like never-run singleton spawns.
	deref := -1
	for _, id := range loads {
		in := p.Instrs[id]
		if in.A.Kind == ir.OperVar && in.A.Var.Name == "b" {
			deref = id
		}
	}
	if deref < 0 {
		t.Fatal("guarded deref load not found")
	}
	if !db.NonNullLoads.Has(deref) {
		t.Error("never-executed load site missing from NonNullLoads")
	}
}

func TestConverge(t *testing.T) {
	p := lang.MustCompile(`
		func a() { print(1); }
		func b() { print(2); }
		func main() {
			if (input(0) == 0) { a(); } else { b(); }
		}
	`)
	gen := func(run int) ([]int64, uint64) {
		// Alternate inputs; after both paths are seen nothing changes.
		return []int64{int64(run % 2)}, uint64(run + 1)
	}
	db, st, err := ConvergeOpt(p, gen, Options{MaxRuns: 50, StableWindow: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	runs := st.Runs
	if runs >= 50 {
		t.Errorf("did not converge (runs = %d)", runs)
	}
	if runs < 5 { // 2 distinct runs + 3 stable
		t.Errorf("converged suspiciously fast: %d", runs)
	}
	// Both a and b visited.
	for _, fname := range []string{"a", "b"} {
		f := p.FuncByName[fname]
		if !db.Visited.Has(f.Entry.ID) {
			t.Errorf("%s unreachable after convergence", fname)
		}
	}
}

func TestConvergeZeroRuns(t *testing.T) {
	p := lang.MustCompile(`func main() { print(1); }`)
	if _, _, err := ConvergeOpt(p, func(int) ([]int64, uint64) { return nil, 1 }, Options{MaxRuns: 0, StableWindow: 3, Workers: 1}); err == nil {
		t.Fatal("ConvergeOpt with zero runs succeeded")
	}
}
