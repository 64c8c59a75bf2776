package core

import (
	"fmt"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/mhp"
	"oha/internal/pointsto"
	"oha/internal/progen"
	"oha/internal/staticrace"
)

// ------------------------------------------------- AggressiveDB edges

// syntheticProfile builds a ProfileResult with hand-picked block
// statistics: blocks 1..3 visited in 10/5/1 of 10 runs, block 4
// visited but absent from the statistics.
func syntheticProfile() *ProfileResult {
	db := invariants.NewDB()
	for _, b := range []int{1, 2, 3, 4} {
		db.Visited.Add(b)
	}
	return &ProfileResult{
		DB:        db,
		Runs:      10,
		BlockRuns: map[int]int{1: 10, 2: 5, 3: 1},
	}
}

func TestAggressiveDBEdgeCases(t *testing.T) {
	pr := syntheticProfile()

	// minFrac = 0: the standard invariant set, untouched.
	if got := pr.AggressiveDB(0); !got.Equal(pr.DB) {
		t.Error("minFrac=0 changed the invariant set")
	}

	// minFrac = 1: only blocks visited in every run survive; blocks
	// without statistics are never pruned.
	got := pr.AggressiveDB(1)
	for b, want := range map[int]bool{1: true, 2: false, 3: false, 4: true} {
		if got.Visited.Has(b) != want {
			t.Errorf("minFrac=1: block %d visited = %v, want %v", b, got.Visited.Has(b), want)
		}
	}

	// minFrac > 1: an impossible threshold prunes every block with
	// statistics, but still keeps statistics-free blocks.
	got = pr.AggressiveDB(2)
	for b, want := range map[int]bool{1: false, 2: false, 3: false, 4: true} {
		if got.Visited.Has(b) != want {
			t.Errorf("minFrac=2: block %d visited = %v, want %v", b, got.Visited.Has(b), want)
		}
	}

	// The result is always a private clone.
	got.Visited.Remove(4)
	if !pr.DB.Visited.Has(4) {
		t.Error("AggressiveDB returned a shared database")
	}

	// Empty BlockRuns: nothing to prune at any threshold.
	empty := &ProfileResult{DB: pr.DB.Clone(), Runs: 10, BlockRuns: map[int]int{}}
	if got := empty.AggressiveDB(1); !got.Equal(empty.DB) {
		t.Error("empty BlockRuns pruned blocks")
	}

	// Zero runs: the threshold is meaningless; the set is unchanged.
	zero := &ProfileResult{DB: pr.DB.Clone(), Runs: 0, BlockRuns: map[int]int{1: 1}}
	if got := zero.AggressiveDB(1); !got.Equal(zero.DB) {
		t.Error("zero-run profile pruned blocks")
	}
}

// ------------------------------------------------- parallel determinism

const parallelRacy = `
	global a = 0;
	global b = 0;
	global m = 0;
	func w1(v) { lock(&m); a = a + v; unlock(&m); b = b + 1; }
	func w2(v) { lock(&m); a = a * v; unlock(&m); }
	func main() {
		var t1 = spawn w1(input(0));
		var t2 = spawn w2(input(1));
		join(t1); join(t2);
		print(a + b);
	}
`

func parallelGen(run int) Execution {
	return Execution{Inputs: []int64{int64(run%5 + 1), int64(run%3 + 1)}, Seed: uint64(run + 1)}
}

func TestProfileWithWorkersAndCacheDeterminism(t *testing.T) {
	prog := lang.MustCompile(parallelRacy)
	seq, err := ProfileWith(prog, parallelGen, ProfileOptions{MaxRuns: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := artifacts.New("")
	for _, workers := range []int{2, 8} {
		for pass := 0; pass < 2; pass++ { // second pass: warm cache
			pr, err := ProfileWith(prog, parallelGen, ProfileOptions{MaxRuns: 16, Workers: workers, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if pr.Runs != seq.Runs || !pr.DB.Equal(seq.DB) {
				t.Errorf("workers=%d pass=%d: result diverged from sequential", workers, pass)
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache unused: %+v", st)
	}
}

func TestProfileNWithWorkersDeterminism(t *testing.T) {
	prog := lang.MustCompile(parallelRacy)
	execs := make([]Execution, 12)
	for i := range execs {
		execs[i] = parallelGen(i)
	}
	seq, err := ProfileNWith(prog, execs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		db, err := ProfileNWith(prog, execs, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !db.Equal(seq) {
			t.Errorf("workers=%d: merged database diverged", workers)
		}
	}
}

// --------------------------------------------- cache eliminates solves

func TestCacheEliminatesRepeatedStaticSolves(t *testing.T) {
	prog := lang.MustCompile(parallelRacy)
	pr := mustProfile(t, prog, parallelGen, 16)
	cache := artifacts.New("")

	// Cold: the predicated race pipeline solves points-to, MHP and the
	// static race analysis once.
	opt1, err := NewOptFTCached(prog, pr.DB, cache)
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.Stats()
	if cold.Misses == 0 {
		t.Fatal("no solves recorded on a cold cache")
	}

	// Warm: rebuilding the same configuration must perform zero new
	// solves and produce an equivalent analysis.
	opt2, err := NewOptFTCached(prog, pr.DB, cache)
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm rebuild performed %d new solves", warm.Misses-cold.Misses)
	}
	if warm.Hits <= cold.Hits {
		t.Error("warm rebuild did not hit the cache")
	}
	if len(opt1.Pred.Pairs) != len(opt2.Pred.Pairs) || opt1.ElidedAccesses() != opt2.ElidedAccesses() {
		t.Error("cached rebuild produced a different analysis")
	}

	// The cached constructor must agree with the uncached one.
	plain, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Pred.Pairs) != len(opt1.Pred.Pairs) || plain.ElidedAccesses() != opt1.ElidedAccesses() {
		t.Error("cached and uncached constructors disagree")
	}
}

func TestCacheEliminatesRepeatedSliceSolves(t *testing.T) {
	prog := lang.MustCompile(parallelRacy)
	pr := mustProfile(t, prog, parallelGen, 16)
	criterion := lastPrintOf(t, prog)
	cache := artifacts.New("")

	opt1, err := NewOptSliceCached(prog, pr.DB, criterion, 24, cache)
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.Stats()
	opt2, err := NewOptSliceCached(prog, pr.DB, criterion, 24, cache)
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm rebuild performed %d new solves", warm.Misses-cold.Misses)
	}
	if opt1.Static.Size() != opt2.Static.Size() || opt1.AT != opt2.AT {
		t.Error("cached rebuild produced a different slice")
	}
	plain, err := NewOptSlice(prog, pr.DB, criterion, 24)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Static.Size() != opt1.Static.Size() || plain.AT != opt1.AT {
		t.Error("cached and uncached slicers disagree")
	}
}

// ------------------------------------- parallel solver determinism

// solverProgram compiles one generated program and profiles a base
// invariant DB for it.
func solverProgram(t testing.TB, seed uint64, cfg progen.Config) (*ir.Program, *invariants.DB) {
	t.Helper()
	prog, err := lang.Compile(progen.Generate(seed, cfg))
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}
	inputs := make([]int64, 8)
	for j := range inputs {
		z := seed*1000 + uint64(j) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		inputs[j] = int64((z ^ (z >> 27)) % 100)
	}
	pr, err := Profile(prog, func(run int) Execution {
		return Execution{Inputs: inputs, Seed: uint64(run + 1)}
	}, 8)
	if err != nil {
		t.Fatalf("seed %d: profile: %v", seed, err)
	}
	return prog, pr.DB
}

// weakening is one single-fact removal from a profiled DB.
type weakening struct {
	name string
	db   *invariants.DB
}

// singleFactWeakenings enumerates every single-fact removal the
// refinement rules can produce from db (capped per category so the
// exhaustive product stays fast).
func singleFactWeakenings(prog *ir.Program, db *invariants.DB) []weakening {
	const perKind = 6
	var out []weakening
	n := 0
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			if db.Visited.Has(b.ID) || n >= perKind {
				continue
			}
			w := db.Clone()
			if w.MarkVisited(b.ID) {
				out = append(out, weakening{fmt.Sprintf("visit-block-%d", b.ID), w})
				n++
			}
		}
	}
	db.SingletonSpawns.ForEach(func(site int) bool {
		w := db.Clone()
		if w.RetractSingletonSpawn(site) {
			out = append(out, weakening{fmt.Sprintf("retract-singleton-%d", site), w})
		}
		return true
	})
	seenGroup := map[int]bool{}
	for pair := range db.MustAliasLocks {
		if seenGroup[pair.A] {
			continue
		}
		w := db.Clone()
		if w.DropMustAliasGroup(pair.A) > 0 {
			out = append(out, weakening{fmt.Sprintf("drop-alias-%d", pair.A), w})
			// Group members share the outcome; skip their duplicates.
			for p := range db.MustAliasLocks {
				if !w.MustAliasLocks[p] {
					seenGroup[p.A], seenGroup[p.B] = true, true
				}
			}
		}
	}
	n = 0
	for _, in := range prog.Instrs {
		if in.Op != ir.OpCall && in.Op != ir.OpSpawn || in.Callee != nil || n >= perKind {
			continue
		}
		for _, fn := range prog.Funcs {
			if set, ok := db.Callees[in.ID]; ok && set.Has(fn.ID) {
				continue
			}
			w := db.Clone()
			if w.WidenCallees(in.ID, fn.ID) {
				out = append(out, weakening{fmt.Sprintf("widen-call-%d-fn-%d", in.ID, fn.ID), w})
				n++
			}
			break // one widened callee per site is enough
		}
	}
	if w := db.Clone(); w.ClearElidableLocks() {
		out = append(out, weakening{"clear-elidable", w})
	}
	for _, in := range prog.Instrs {
		if in.Op == ir.OpCall {
			w := db.Clone()
			if w.AddContext([]int{in.ID}) {
				out = append(out, weakening{fmt.Sprintf("add-context-%d", in.ID), w})
			}
			break
		}
	}
	return out
}

// raceMaskDigest renders the elision masks a static race result
// compiles for db.
func raceMaskDigest(sr *staticrace.Result, db *invariants.DB) string {
	mem, sync := sr.Masks(db)
	return fmt.Sprintf("%v|%v", mem, sync)
}

// TestParallelSolveEquivalence: for every generated program and every
// single-fact removal from its profiled DB, the parallel points-to and
// race-pair solvers at 1, 2 and 8 workers produce digests bit-identical
// to the sequential pipeline, for points-to, race pairs and masks.
func TestParallelSolveEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		prog, base := solverProgram(t, seed, progen.DefaultConfig())
		weaks := singleFactWeakenings(prog, base)
		if len(weaks) == 0 {
			t.Fatalf("seed %d: no weakenings enumerated", seed)
		}
		for _, w := range weaks {
			pt, err := pointsto.Analyze(prog, ctxs.NewCI(prog), w.db)
			if err != nil {
				t.Fatalf("seed %d %s: pointsto: %v", seed, w.name, err)
			}
			sr := staticrace.Analyze(prog, pt, mhp.Analyze(prog, pt, w.db), w.db)
			wantPT, wantRace, wantMasks := pt.CanonicalDigest(), sr.CanonicalDigest(), raceMaskDigest(sr, w.db)

			for _, workers := range []int{1, 2, 8} {
				pt, err := pointsto.AnalyzeParallel(prog, ctxs.NewCI(prog), w.db, workers)
				if err != nil {
					t.Fatalf("seed %d %s: parallel(%d): %v", seed, w.name, workers, err)
				}
				if got := pt.CanonicalDigest(); got != wantPT {
					t.Fatalf("seed %d %s: parallel(%d) points-to digest diverged", seed, w.name, workers)
				}
				m := mhp.Analyze(prog, pt, w.db)
				sr := staticrace.AnalyzeParallel(prog, pt, m, w.db, workers)
				if got := sr.CanonicalDigest(); got != wantRace {
					t.Fatalf("seed %d %s: parallel(%d) race digest diverged", seed, w.name, workers)
				}
				if got := raceMaskDigest(sr, w.db); got != wantMasks {
					t.Fatalf("seed %d %s: parallel(%d) masks diverged", seed, w.name, workers)
				}
			}
		}
	}
}

// BenchmarkPointsToParallel measures the sharded worklist solver
// (GOMAXPROCS workers) on a larger generated program.
func BenchmarkPointsToParallel(b *testing.B) {
	prog, db := solverProgram(b, 3, progen.Config{Funcs: 24, Workers: 6, MaxDepth: 4, MaxStmts: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pointsto.AnalyzeParallel(prog, ctxs.NewCI(prog), db, 0); err != nil {
			b.Fatal(err)
		}
	}
}
