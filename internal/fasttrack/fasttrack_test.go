package fasttrack

import (
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/sched"
)

// detect runs the program under FastTrack with the given seed.
func detect(t *testing.T, src string, seed uint64) *Detector {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	d := New()
	_, err = interp.Run(interp.Config{
		Prog:    p,
		Tracer:  d,
		Choose:  sched.NewSeeded(seed),
		Quantum: 3,
		Masks:   interp.Masks{Block: make([]bool, len(p.Blocks))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// detectAnySeed returns whether any of several seeds reports a race.
func detectAnySeed(t *testing.T, src string) bool {
	t.Helper()
	for seed := uint64(1); seed <= 8; seed++ {
		if detect(t, src, seed).HasRaces() {
			return true
		}
	}
	return false
}

func TestNoRaceWhenLocked(t *testing.T) {
	src := `
		global c = 0;
		global m = 0;
		func w() {
			var i = 0;
			while (i < 10) {
				lock(&m);
				c = c + 1;
				unlock(&m);
				i = i + 1;
			}
		}
		func main() {
			var t1 = spawn w();
			var t2 = spawn w();
			join(t1); join(t2);
			print(c);
		}
	`
	for seed := uint64(1); seed <= 8; seed++ {
		if d := detect(t, src, seed); d.HasRaces() {
			t.Fatalf("seed %d: false race: %v", seed, d.Races())
		}
	}
}

func TestDetectsWriteWriteRace(t *testing.T) {
	src := `
		global c = 0;
		func w() { c = 5; }
		func main() {
			var t1 = spawn w();
			var t2 = spawn w();
			join(t1); join(t2);
		}
	`
	if !detectAnySeed(t, src) {
		t.Fatal("unsynchronized write-write race missed on all seeds")
	}
	// And the kind must be write-write (under some seed).
	found := false
	for seed := uint64(1); seed <= 8; seed++ {
		for _, r := range detect(t, src, seed).Races() {
			if r.Kind == WriteWrite {
				found = true
			}
		}
	}
	if !found {
		t.Error("no write-write classification")
	}
}

func TestDetectsReadWriteRaces(t *testing.T) {
	src := `
		global c = 0;
		func reader() { print(c); }
		func writer() { c = 1; }
		func main() {
			var t1 = spawn reader();
			var t2 = spawn writer();
			join(t1); join(t2);
		}
	`
	kinds := map[RaceKind]bool{}
	for seed := uint64(1); seed <= 16; seed++ {
		for _, r := range detect(t, src, seed).Races() {
			kinds[r.Kind] = true
		}
	}
	if !kinds[WriteRead] && !kinds[ReadWrite] {
		t.Fatalf("read/write race never classified: %v", kinds)
	}
}

func TestForkJoinOrders(t *testing.T) {
	// Parent writes before spawn, child reads; child writes, parent
	// reads after join: all ordered, no races.
	src := `
		global a = 0;
		global b = 0;
		func w() {
			print(a);   // ordered by fork
			b = 7;
		}
		func main() {
			a = 1;
			var t = spawn w();
			join(t);
			print(b);   // ordered by join
		}
	`
	for seed := uint64(1); seed <= 8; seed++ {
		if d := detect(t, src, seed); d.HasRaces() {
			t.Fatalf("seed %d: fork/join ordering lost: %v", seed, d.Races())
		}
	}
}

func TestLockHappensBefore(t *testing.T) {
	// Classic message-passing through a critical section: the flag and
	// data are both accessed under the lock — never racy.
	src := `
		global data = 0;
		global ready = 0;
		global m = 0;
		func producer() {
			lock(&m);
			data = 42;
			ready = 1;
			unlock(&m);
		}
		func consumer() {
			var done = 0;
			while (!done) {
				lock(&m);
				if (ready) {
					print(data);
					done = 1;
				}
				unlock(&m);
			}
		}
		func main() {
			var t1 = spawn producer();
			var t2 = spawn consumer();
			join(t1); join(t2);
		}
	`
	for seed := uint64(1); seed <= 8; seed++ {
		if d := detect(t, src, seed); d.HasRaces() {
			t.Fatalf("seed %d: false race through lock HB: %v", seed, d.Races())
		}
	}
}

func TestCustomSyncWithoutLockEventsReportsFalseRace(t *testing.T) {
	// The Figure 4 scenario: ordering comes only from lock HB around a
	// spin flag. With lock instrumentation elided, FastTrack loses the
	// edge and reports a false race — the hazard the
	// no-custom-synchronization invariant must catch.
	src := `
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
			join(a); join(c);
		}
	`
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(elideLocks bool) *Detector {
		d := New()
		cfg := interp.Config{
			Prog:    p,
			Tracer:  d,
			Choose:  sched.NewSeeded(3),
			Quantum: 3,
			Masks:   interp.Masks{Block: make([]bool, len(p.Blocks))},
		}
		if elideLocks {
			cfg.Masks.Sync = make([]bool, len(p.Instrs)) // all lock events off
		}
		if _, err := interp.Run(cfg); err != nil {
			t.Fatal(err)
		}
		return d
	}
	full := run(false)
	if full.HasRaces() {
		// b and x are both properly ordered via the lock.
		t.Fatalf("full instrumentation reported races: %v", full.Races())
	}
	elided := run(true)
	if !elided.HasRaces() {
		t.Fatal("eliding lock instrumentation did not produce the expected false race")
	}
}

func TestElidingProvenAccessesPreservesRaces(t *testing.T) {
	// Eliding accesses that cannot race (here: g2, thread-local h)
	// must not change the race report on g.
	src := `
		global g = 0;
		global h = 0;
		func w() { g = g + 1; }
		func quiet() { h = h + 1; }
		func main() {
			var t1 = spawn w();
			var t2 = spawn w();
			quiet();
			join(t1); join(t2);
		}
	`
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mem []bool) *Detector {
		d := New()
		if _, err := interp.Run(interp.Config{
			Prog: p, Tracer: d, Choose: sched.NewSeeded(5), Quantum: 2,
			Masks: interp.Masks{Mem: mem, Block: make([]bool, len(p.Blocks))},
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	full := run(nil)
	// Elide the h accesses (in quiet).
	mem := make([]bool, len(p.Instrs))
	for _, in := range p.Instrs {
		if in.IsMemAccess() && in.Block.Fn.Name != "quiet" {
			mem[in.ID] = true
		}
	}
	part := run(mem)
	fk, pk := full.RaceKeys(), part.RaceKeys()
	if len(fk) == 0 {
		t.Fatal("expected a race on g")
	}
	if len(fk) != len(pk) {
		t.Fatalf("race sets differ: %v vs %v", fk, pk)
	}
	for i := range fk {
		if fk[i] != pk[i] {
			t.Fatalf("race sets differ: %v vs %v", fk, pk)
		}
	}
}

func TestReadSharedInflation(t *testing.T) {
	// Many concurrent readers then a racy writer: the read metadata
	// must inflate to a VC and the write must still be caught.
	src := `
		global g = 0;
		func reader() { print(g); }
		func writer() { g = 9; }
		func main() {
			var r1 = spawn reader();
			var r2 = spawn reader();
			var r3 = spawn reader();
			join(r1); join(r2); join(r3);
			var w = spawn writer();
			var r4 = spawn reader();
			join(w); join(r4);
		}
	`
	raced := false
	for seed := uint64(1); seed <= 16; seed++ {
		d := detect(t, src, seed)
		for _, r := range d.Races() {
			raced = true
			_ = r
		}
	}
	if !raced {
		t.Fatal("write racing concurrent reader never detected")
	}
}

func TestRaceDeduplication(t *testing.T) {
	// The same static pair racing many times reports once.
	src := `
		global g = 0;
		func w() {
			var i = 0;
			while (i < 50) { g = g + 1; i = i + 1; }
		}
		func main() {
			var t1 = spawn w();
			var t2 = spawn w();
			join(t1); join(t2);
		}
	`
	for seed := uint64(1); seed <= 8; seed++ {
		d := detect(t, src, seed)
		if len(d.Races()) > 4 { // load/store pair combinations at most
			t.Fatalf("races not deduplicated: %d reports", len(d.Races()))
		}
	}
}

func TestChecksCounted(t *testing.T) {
	d := detect(t, `
		global g = 0;
		func main() {
			var i = 0;
			while (i < 10) { g = g + 1; i = i + 1; }
		}
	`, 1)
	// 10 iterations × (1 load + 1 store) = 20 checks.
	if d.Checks != 20 {
		t.Errorf("Checks = %d, want 20", d.Checks)
	}
	if d.HasRaces() {
		t.Error("single-threaded program raced")
	}
}

func TestRaceStringAndKinds(t *testing.T) {
	r := Race{Kind: WriteWrite, Addr: interp.MakeAddr(0, 1),
		Instr: &ir.Instr{ID: 5, Op: ir.OpStore}}
	if r.String() == "" {
		t.Error("empty race string")
	}
	for _, k := range []RaceKind{WriteWrite, WriteRead, ReadWrite} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}
