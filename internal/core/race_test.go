package core

import (
	"fmt"
	"slices"
	"testing"

	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/workloads"
)

// lockedCounter: fully synchronized; OptFT should elide almost all
// instrumentation.
const lockedCounter = `
	global c = 0;
	global m = 0;
	func w(n) {
		var i = 0;
		while (i < n) {
			lock(&m);
			c = c + 1;
			unlock(&m);
			i = i + 1;
		}
	}
	func main() {
		var t1 = spawn w(input(0));
		var t2 = spawn w(input(0));
		join(t1);
		join(t2);
		print(c);
	}
`

// racyProg: a real race that every configuration must report.
const racyProg = `
	global g = 0;
	func w(n) {
		var i = 0;
		while (i < n) { g = g + 1; i = i + 1; }
	}
	func main() {
		var t1 = spawn w(input(0));
		var t2 = spawn w(input(0));
		join(t1);
		join(t2);
		print(g);
	}
`

// pathProg: has an input-guarded racy path, for forcing
// mis-speculation.
const pathProg = `
	global g = 0;
	global h = 0;
	func w(k) {
		if (k > 100) {
			g = g + 1;   // racy, but unlikely path
		}
		h = 7;           // benign: h only written by one live thread at a time? no — racy too
	}
	func main() {
		var t1 = spawn w(input(0));
		var t2 = spawn w(input(0));
		join(t1);
		join(t2);
		print(g + h);
	}
`

func gen(inputs ...int64) func(int) Execution {
	return func(run int) Execution {
		return Execution{Inputs: inputs, Seed: uint64(run + 1)}
	}
}

func mustProfile(t *testing.T, prog *ir.Program, g func(int) Execution, n int) *ProfileResult {
	t.Helper()
	pr, err := Profile(prog, g, n)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// sameReports checks address-level race equivalence (what FastTrack
// guarantees across instrumentation configurations).
func sameReports(a, b *RaceReport) bool { return SameRaces(a, b) }

func TestOptFTEquivalentOnCleanProgram(t *testing.T) {
	prog := lang.MustCompile(lockedCounter)
	pr := mustProfile(t, prog, gen(20), 20)
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		e := Execution{Inputs: []int64{20}, Seed: seed}
		ft, err := RunFastTrack(prog, e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := o.Run(e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if opt.RolledBack {
			t.Fatalf("seed %d: clean program rolled back: %s", seed, opt.Violation)
		}
		if !sameReports(ft, opt) {
			t.Fatalf("seed %d: OptFT %v != FastTrack %v", seed, opt.Races, ft.Races)
		}
		if len(ft.Races) != 0 {
			t.Fatalf("locked counter raced: %v", ft.Details)
		}
		// The point of OHA: dramatically less instrumentation work.
		if opt.Stats.Loads+opt.Stats.Stores >= ft.Stats.Loads+ft.Stats.Stores {
			t.Errorf("seed %d: OptFT did not elide accesses (%d vs %d)",
				seed, opt.Stats.Loads+opt.Stats.Stores, ft.Stats.Loads+ft.Stats.Stores)
		}
	}
}

func TestOptFTStillFindsRealRaces(t *testing.T) {
	prog := lang.MustCompile(racyProg)
	pr := mustProfile(t, prog, gen(10), 20)
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for seed := uint64(1); seed <= 10; seed++ {
		e := Execution{Inputs: []int64{10}, Seed: seed}
		ft, err := RunFastTrack(prog, e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := o.Run(e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameReports(ft, opt) {
			t.Fatalf("seed %d: OptFT %v != FastTrack %v (rolledback=%v)",
				seed, opt.Races, ft.Races, opt.RolledBack)
		}
		if len(opt.Races) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("race never observed dynamically in 10 schedules")
	}
}

func TestOptFTRollbackOnLUCViolation(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	// Profile only with small inputs: the k>100 branch is LUC.
	pr := mustProfile(t, prog, gen(5), 20)
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	// Analyze an execution that takes the unlikely path.
	e := Execution{Inputs: []int64{500}, Seed: 3}
	ft, err := RunFastTrack(prog, e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := o.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !opt.RolledBack {
		t.Fatal("LUC violation did not trigger rollback")
	}
	if opt.Violation.None() {
		t.Error("missing violation reason")
	}
	if opt.Violation.Kind != ViolationUnreachableBlock {
		t.Errorf("violation kind = %q, want %q", opt.Violation.Kind, ViolationUnreachableBlock)
	}
	if !sameReports(ft, opt) {
		t.Fatalf("after rollback OptFT %v != FastTrack %v", opt.Races, ft.Races)
	}

	// And on the likely path there is no rollback.
	e2 := Execution{Inputs: []int64{5}, Seed: 3}
	opt2, err := o.Run(e2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opt2.RolledBack {
		t.Fatalf("likely path rolled back: %s", opt2.Violation)
	}
}

func TestOptFTRollbackOnSingletonViolation(t *testing.T) {
	src := `
		global g = 0;
		global m = 0;
		func w() {
			lock(&m);
			g = g + 1;
			unlock(&m);
		}
		func main() {
			var n = input(0);
			var i = 0;
			var t = 0;
			// The loop body (and so the spawn) executes n times.
			while (i < n) {
				t = spawn w();
				join(t);
				i = i + 1;
			}
			print(g);
		}
	`
	prog := lang.MustCompile(src)
	// Profile with n=1 only: the spawn site looks singleton.
	pr := mustProfile(t, prog, gen(1), 20)
	var spawnSite *ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpSpawn {
			spawnSite = in
		}
	}
	if !pr.DB.SingletonSpawns.Has(spawnSite.ID) {
		t.Fatal("test premise broken: spawn site not singleton after profiling")
	}
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	e := Execution{Inputs: []int64{3}, Seed: 2}
	opt, err := o.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !opt.RolledBack {
		t.Fatal("second spawn did not violate the singleton invariant")
	}
	ft, err := RunFastTrack(prog, e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameReports(ft, opt) {
		t.Fatalf("rollback result differs: %v vs %v", opt.Races, ft.Races)
	}
}

func TestOptFTRollbackOnGuardingLockViolation(t *testing.T) {
	// Profiled runs always lock m1 at both sites; the analyzed run
	// locks m2 at one of them.
	src := `
		global g = 0;
		global m1 = 0;
		global m2 = 0;
		func w1() {
			lock(&m1);
			g = g + 1;
			unlock(&m1);
		}
		func w2(which) {
			var p = &m1;
			if (which > 10) { p = &m2; }
			lock(p);
			g = g + 2;
			unlock(p);
		}
		func main() {
			var i = 0;
			var t1 = 0;
			var t2 = 0;
			while (i < 2) {
				t1 = spawn w1();
				t2 = spawn w2(input(0));
				join(t1);
				join(t2);
				i = i + 1;
			}
			print(g);
		}
	`
	prog := lang.MustCompile(src)
	pr := mustProfile(t, prog, gen(1), 20)
	if len(pr.DB.MustAliasLocks) == 0 {
		t.Fatal("test premise broken: no must-alias pairs profiled")
	}
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	// which = 50 > 10: w2 locks m2, breaking the must-alias pair, but
	// note the branch is also LUC — either violation is a correct
	// mis-speculation signal.
	e := Execution{Inputs: []int64{50}, Seed: 1}
	opt, err := o.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !opt.RolledBack {
		t.Fatal("lock-aliasing change did not trigger rollback")
	}
	ft, err := RunFastTrack(prog, e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameReports(ft, opt) {
		t.Fatalf("rollback result differs: %v vs %v", opt.Races, ft.Races)
	}
}

// figure4Src is Figure 4's custom synchronization: x is ordered by a
// lock-protected flag, and the protected accesses themselves never
// race, so the static analysis proposes eliding the locks — which
// loses the ordering and reports a false race on x.
const figure4Src = `
	global x = 0;
	global b = 0;
	global m = 0;
	func t1() {
		x = 5;
		lock(&m);
		b = 1;
		unlock(&m);
	}
	func t2() {
		var done = 0;
		while (!done) {
			lock(&m);
			done = b;
			unlock(&m);
		}
		print(x);
	}
	func main() {
		var a = spawn t1();
		var c = spawn t2();
		join(a);
		join(c);
	}
`

// TestCustomSyncValidationRestoresLocks: profiling proposes eliding
// Figure 4's locks, and a run validates the proposal by speculation.
// The false race on x rolls it back, and the re-execution under the
// generation with locks instrumented agrees with FastTrack.
func TestCustomSyncValidationRestoresLocks(t *testing.T) {
	prog := lang.MustCompile(figure4Src)
	pr := mustProfile(t, prog, gen(), 20)
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	if o.DB.ElidableLocks.IsEmpty() {
		t.Fatal("profiling proposed no elidable lock")
	}
	for _, e := range []Execution{{Seed: 1}, {Seed: 2}, {Seed: 3}} {
		opt, err := o.Run(e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ft, err := RunFastTrack(prog, e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ft.Races) != 0 {
			t.Fatalf("custom-sync program actually raced: %v", ft.Details)
		}
		if !opt.RolledBack || opt.Violation.Kind != ViolationElidedLockRace || opt.RolledBackTo != RollbackRefined {
			t.Fatalf("seed %d: rolledBack=%v to %q violation %v, want an elided-lock-race rollback to a refined generation",
				e.Seed, opt.RolledBack, opt.RolledBackTo, opt.Violation)
		}
		if !sameReports(ft, opt) {
			t.Fatalf("seed %d: OptFT %v, FastTrack %v", e.Seed, opt.Races, ft.Races)
		}
	}
}

func TestCustomSyncElidesWhenSafe(t *testing.T) {
	// No custom synchronization: the proposed elisions hold, and the
	// optimistic run skips lock instrumentation without rolling back.
	prog := lang.MustCompile(lockedCounter)
	pr := mustProfile(t, prog, gen(10), 20)
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	if o.DB.ElidableLocks.IsEmpty() {
		t.Fatal("profiling proposed no elidable lock")
	}
	e := Execution{Inputs: []int64{10}, Seed: 4}
	opt, err := o.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := o.sound(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.Locks+opt.Stats.Unlocks >= hy.Stats.Locks+hy.Stats.Unlocks {
		t.Errorf("lock instrumentation not reduced: opt=%d hybrid=%d",
			opt.Stats.Locks+opt.Stats.Unlocks, hy.Stats.Locks+hy.Stats.Unlocks)
	}
	if opt.RolledBack {
		t.Fatalf("unexpected rollback: %s", opt.Violation)
	}
	if !sameReports(opt, hy) {
		t.Fatal("results differ after lock elision")
	}
}

// twoGroupsSrc spreads Figure 4's flag handshake over two functions,
// t1 and t2, and adds a third, bump, with ordinary locks. Eliding
// either handshake function's locks loses the ordering of x.
const twoGroupsSrc = `
	global x = 0;
	global b = 0;
	global m = 0;
	global k = 0;
	global cnt = 0;
	func t1() {
		x = 5;
		lock(&m);
		b = 1;
		unlock(&m);
	}
	func t2() {
		var done = 0;
		while (!done) {
			lock(&m);
			done = b;
			unlock(&m);
		}
		print(x);
	}
	func bump() {
		lock(&k);
		cnt = cnt + 1;
		unlock(&k);
	}
	func main() {
		var a = spawn t1();
		var d = spawn t2();
		var e = spawn bump();
		var f = spawn bump();
		join(a);
		join(d);
		join(e);
		join(f);
		print(cnt);
	}
`

// TestCustomSyncRestoresTwoGroups is the elided-lock-race cell: on
// programs where eliding the proposed lock sites adds a false race —
// the two-group handshake and progen default seed 33, whose six
// proposed sites profiling-time validation used to restore — profiling
// elides every proposed site, and each testing run validates the
// proposal by speculation. The run rolls back with elided-lock-race,
// its one refinement clears ElidableLocks (restoring both groups at
// once), the report equals FastTrack's, and the refined generation
// then runs the same execution clean. No run needs the sound fallback.
// Results are the same at workers 1 and 8.
func TestCustomSyncRestoresTwoGroups(t *testing.T) {
	seed33 := randomInputs(33)
	cases := []struct {
		name    string
		src     string
		profile []int64
		tests   [][]int64
	}{
		{"two-groups", twoGroupsSrc, nil, [][]int64{nil}},
		{"progen33", progen.Generate(33, progen.DefaultConfig()), seed33[0], seed33},
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers/%d", workers), func(t *testing.T) {
			for _, c := range cases {
				prog := lang.MustCompile(c.src)
				pr, err := ProfileWith(prog, gen(c.profile...), ProfileOptions{MaxRuns: 8, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				o, err := NewOptFTStatic(prog, pr.DB, StaticConfig{Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if o.DB.ElidableLocks.IsEmpty() || !o.DB.ElidableLocks.Equal(o.Pred.ElidableSyncs) {
					t.Fatalf("%s: elidable %v, want the whole non-empty proposal %v", c.name, o.DB.ElidableLocks, o.Pred.ElidableSyncs)
				}
				builds := countFallbackBuilds(o.gens)
				refined := o.DB.Clone()
				refined.ElidableLocks.Clear()
				for _, in := range c.tests {
					for seed := uint64(1); seed <= 2; seed++ {
						checkElidedLockRace(t, c.name, o, refined, Execution{Inputs: in, Seed: seed})
					}
				}
				if n := len(o.gens.list); n != 1 {
					t.Errorf("%s: %d refined generations, want 1", c.name, n)
				}
				if n := builds.Load(); n != 0 {
					t.Errorf("%s: %d sound fallback builds, want 0", c.name, n)
				}
			}
		})
	}
}

// checkElidedLockRace runs e under o, which elides lock sites that
// order a racy-looking access, and checks that it rolls back with
// elided-lock-race to the generation of refined (o's database without
// elidable locks) with FastTrack's report, and that the refined
// generation runs e clean.
func checkElidedLockRace(t *testing.T, name string, o *OptFT, refined *invariants.DB, e Execution) {
	t.Helper()
	ft, err := RunFastTrack(o.Prog, e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := o.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack || rep.RolledBackTo != RollbackRefined || len(rep.Refuted) != 1 || rep.Violation.Kind != ViolationElidedLockRace {
		t.Fatalf("%s %v: rolledBack=%v to %q refuted %v, want one elided-lock-race refinement",
			name, e, rep.RolledBack, rep.RolledBackTo, rep.Refuted)
	}
	if !sameReports(ft, rep) || !slices.Equal(ft.Races, rep.Races) {
		t.Fatalf("%s %v: OptFT races %v, FastTrack %v", name, e, rep.Races, ft.Races)
	}
	g, ok := o.memoized(refined)
	if !ok {
		t.Fatalf("%s %v: the rollback built no generation without elidable locks", name, e)
	}
	again, err := g.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.RolledBack || !sameReports(ft, again) {
		t.Fatalf("%s %v: refined generation rolledBack=%v (%v), races %v", name, e, again.RolledBack, again.Violation, again.Races)
	}
}

func TestHybridLessWorkThanFastTrackMoreThanOpt(t *testing.T) {
	prog := lang.MustCompile(lockedCounter)
	pr := mustProfile(t, prog, gen(30), 20)
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	e := Execution{Inputs: []int64{30}, Seed: 7}
	ft, _ := RunFastTrack(prog, e, RunOptions{})
	hy, err := o.sound(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := o.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ftW := ft.Stats.InstrumentedOps()
	hyW := hy.Stats.InstrumentedOps()
	optW := opt.Stats.InstrumentedOps()
	if !(optW < ftW) {
		t.Errorf("work ordering broken: opt=%d ft=%d", optW, ftW)
	}
	if hyW > ftW {
		t.Errorf("hybrid does more work than FastTrack: %d > %d", hyW, ftW)
	}
	t.Logf("instrumented ops: fasttrack=%d hybrid=%d optimistic=%d", ftW, hyW, optW)
}

// DJIT+ and FastTrack run the same full-instrumentation configuration:
// on every race workload they find the same racy addresses with the
// same event counts and the same fused execution.
func TestDJITMatchesFastTrackOutcome(t *testing.T) {
	for _, w := range workloads.Races() {
		prog := w.Prog()
		for i := 0; i < 2; i++ {
			e := Execution{Inputs: w.GenInput(1000 + i), Seed: uint64(2000 + i)}
			ft, err := RunFastTrack(prog, e, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dj, err := RunDJIT(prog, e, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !SameRaces(dj, ft) || dj.Stats != ft.Stats || dj.IC.Fused != ft.IC.Fused {
				t.Errorf("%s/%d: DJIT racy %v stats %+v fused %d; FastTrack racy %v stats %+v fused %d",
					w.Name, i, dj.RacyAddrs, dj.Stats, dj.IC.Fused, ft.RacyAddrs, ft.Stats, ft.IC.Fused)
			}
			if ft.IC.Fused == 0 {
				t.Errorf("%s/%d: FastTrack run fused nothing", w.Name, i)
			}
		}
	}
}

// refutedCalleeRaceSrc is a race only a refuted likely callee set
// reveals. h writes g; main calls it once before spawning, so profiling
// visits h, and with input 0 both workers call f through the table.
// With input 1 both call h concurrently and race on g, while the
// predicated analysis — whose points-to wires the table call only to
// f — sees no concurrent access to g.
const refutedCalleeRaceSrc = `
	global g = 0;
	global ftab[2];
	func f(n) { return n + 1; }
	func h(n) {
		g = g + n;
		return g;
	}
	func w(n) {
		var fn = ftab[input(0)];
		var r = fn(n);
		return r;
	}
	func main() {
		ftab[0] = f;
		ftab[1] = h;
		var x = h(1);
		var t1 = spawn w(2);
		var t2 = spawn w(3);
		join(t1);
		join(t2);
		print(g + x);
	}
`

// OptFT checks the likely callee sets its predicated analysis relies
// on: a call outside the profiled set rolls back, to the generation
// with that set widened, and the race on g is reported.
func TestOptFTChecksLikelyCallees(t *testing.T) {
	prog := lang.MustCompile(refutedCalleeRaceSrc)
	pr := mustProfile(t, prog, gen(0), 10)
	opt, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		e := Execution{Inputs: []int64{1}, Seed: seed}
		full, err := RunFastTrack(prog, e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.RacyAddrs) == 0 {
			t.Fatalf("seed %d: FastTrack reports no race on g", seed)
		}
		rep, err := opt.Run(e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !SameRaces(rep, full) {
			t.Fatalf("seed %d: OptFT races on %v, FastTrack on %v (rolled back %v)", seed, rep.RacyAddrs, full.RacyAddrs, rep.RolledBack)
		}
		if rep.Violation.Kind != ViolationCalleeSet || rep.RolledBackTo != RollbackRefined {
			t.Fatalf("seed %d: violation %v, rolled back to %q; want a callee-set rollback to the widened generation", seed, rep.Violation, rep.RolledBackTo)
		}
	}
}
