package mhp

import (
	"runtime"
	"testing"
	"time"

	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/pointsto"
	"oha/internal/profile"
)

// analyze builds the MHP result for a program (db nil = sound).
func analyze(t *testing.T, src string, db *invariants.DB) (*ir.Program, *Result) {
	t.Helper()
	p := lang.MustCompile(src)
	pt, err := pointsto.Analyze(p, ctxs.NewCI(p), db)
	if err != nil {
		t.Fatal(err)
	}
	return p, Analyze(p, pt, db)
}

// accessesIn returns the memory accesses of a function.
func accessesIn(p *ir.Program, fname string) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range p.FuncByName[fname].Blocks {
		for _, in := range b.Instrs {
			if in.IsMemAccess() {
				out = append(out, in)
			}
		}
	}
	return out
}

func TestSingleThreadedNothingParallel(t *testing.T) {
	p, m := analyze(t, `
		global g = 0;
		func main() { g = 1; print(g); }
	`, nil)
	acc := accessesIn(p, "main")
	if m.NumRoots() != 1 {
		t.Fatalf("roots = %d", m.NumRoots())
	}
	if m.MHP(acc[0], acc[1]) {
		t.Error("single-threaded accesses MHP")
	}
}

func TestTwoSpawnSitesConcurrent(t *testing.T) {
	p, m := analyze(t, `
		global g = 0;
		func w1() { g = 1; }
		func w2() { g = 2; }
		func main() {
			var t1 = spawn w1();
			var t2 = spawn w2();
			join(t1); join(t2);
		}
	`, nil)
	a := accessesIn(p, "w1")[0]
	b := accessesIn(p, "w2")[0]
	if !m.MHP(a, b) {
		t.Error("distinct spawn-site accesses not MHP")
	}
}

func TestForkJoinOrdering(t *testing.T) {
	p, m := analyze(t, `
		global g = 0;
		func w() { g = 1; }
		func main() {
			g = 5;             // before spawn: ordered
			var t = spawn w();
			join(t);
			print(g);          // after join: ordered
		}
	`, nil)
	w := accessesIn(p, "w")[0]
	mainAcc := accessesIn(p, "main")
	pre, post := mainAcc[0], mainAcc[1]
	if m.MHP(pre, w) {
		t.Error("pre-spawn main access MHP with thread")
	}
	if m.MHP(post, w) {
		t.Error("post-join main access MHP with thread")
	}
}

func TestLoopedSpawnSelfConcurrent(t *testing.T) {
	p, m := analyze(t, `
		global g = 0;
		func w() { g = g + 1; }
		func main() {
			var i = 0;
			var t = 0;
			while (i < 3) { t = spawn w(); i = i + 1; }
			join(t);
		}
	`, nil)
	acc := accessesIn(p, "w")
	if !m.MHP(acc[0], acc[1]) {
		t.Error("looped spawn not self-concurrent")
	}
	// The join cannot order main with the thread (multi-instance).
	mainAcc := accessesIn(p, "main")
	_ = mainAcc
}

func TestHelperSpawnSoundlyMulti(t *testing.T) {
	src := `
		global g = 0;
		func w() { g = g + 1; }
		func helper() { var t = spawn w(); return t; }
		func main() {
			var t = helper();
			join(t);
		}
	`
	p, m := analyze(t, src, nil)
	acc := accessesIn(p, "w")
	// Soundly: helper could be called many times.
	if !m.MHP(acc[0], acc[1]) {
		t.Error("helper spawn soundly singleton?")
	}

	// With the likely-singleton-thread invariant it is ordered.
	prog := lang.MustCompile(src)
	db, err := profile.Run(prog, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pointsto.Analyze(prog, ctxs.NewCI(prog), db)
	if err != nil {
		t.Fatal(err)
	}
	m2 := Analyze(prog, pt, db)
	acc2 := accessesIn(prog, "w")
	if m2.MHP(acc2[0], acc2[1]) {
		t.Error("singleton invariant did not order the thread with itself")
	}
}

func TestSharedFunctionBothRoots(t *testing.T) {
	p, m := analyze(t, `
		global g = 0;
		func leaf() { g = g + 1; }
		func w() { leaf(); }
		func main() {
			var t = spawn w();
			leaf();
			join(t);
		}
	`, nil)
	leaf := p.FuncByName["leaf"]
	if m.RootsOf(leaf).Len() != 2 {
		t.Fatalf("leaf roots = %d, want 2 (main + spawn)", m.RootsOf(leaf).Len())
	}
	acc := accessesIn(p, "leaf")
	if !m.MHP(acc[0], acc[1]) {
		t.Error("main-vs-thread shared function not MHP")
	}
}

func TestJoinThroughCopyChain(t *testing.T) {
	// The spawn handle flows through a copy before the join; the
	// matcher must still see the ordering.
	p, m := analyze(t, `
		global g = 0;
		func w() { g = 1; }
		func main() {
			var t = spawn w();
			var alias = t;
			join(alias);
			print(g);
		}
	`, nil)
	w := accessesIn(p, "w")[0]
	post := accessesIn(p, "main")[0]
	if m.MHP(post, w) {
		t.Error("join through copy chain not recognized")
	}
}

func TestReassignedHandleDefeatsJoinMatching(t *testing.T) {
	// The handle register is reassigned: the conservative matcher must
	// NOT claim ordering.
	p, m := analyze(t, `
		global g = 0;
		func w() { g = 1; }
		func main() {
			var t = spawn w();
			var u = spawn w();
			t = u;
			join(t);
			print(g);
		}
	`, nil)
	w := accessesIn(p, "w")[0]
	post := accessesIn(p, "main")[0]
	if !m.MHP(post, w) {
		t.Error("reassigned handle still treated as matched join")
	}
}

// TestAnalyzeDoesNotPinProgram checks that analyzing a program, and
// decoding a stored result for it, leave the program collectable once
// the caller drops it: MHP keeps no table keyed by a program.
func TestAnalyzeDoesNotPinProgram(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p := lang.MustCompile(portableSrc)
		pt, err := pointsto.Analyze(p, ctxs.NewCI(p), nil)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Analyze(p, pt, nil).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(p, blob); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(p, func(*ir.Program) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("an analyzed program stayed reachable after its last reference dropped")
}
