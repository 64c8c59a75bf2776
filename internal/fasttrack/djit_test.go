package fasttrack

import (
	"testing"

	"oha/internal/interp"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/sched"
)

// FastTrack's correctness claim relative to its baseline: the epoch
// representation detects exactly the races the full-vector-clock
// detector (DJIT+) detects, at variable granularity.
func TestFastTrackEquivalentToDJIT(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		prog, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []uint64{1, 2, 3} {
			run := func(tr interp.Tracer) {
				_, err := interp.Run(interp.Config{
					Prog:    prog,
					Inputs:  []int64{5, 9, 2, 7, 1, 8, 3, 6},
					Tracer:  tr,
					Choose:  sched.NewSeeded(s),
					Quantum: 4,
					Masks:   interp.Masks{Block: make([]bool, len(prog.Blocks))},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			ft := New()
			run(ft)
			dj := NewDJIT()
			run(dj)
			fa, da := ft.RacyAddrs(), dj.RacyAddrs()
			if len(fa) != len(da) {
				t.Fatalf("seed %d/%d: racy addrs differ: ft=%v djit=%v", seed, s, fa, da)
			}
			for i := range fa {
				if fa[i] != da[i] {
					t.Fatalf("seed %d/%d: racy addrs differ: ft=%v djit=%v", seed, s, fa, da)
				}
			}
			if ft.Checks != dj.Checks {
				t.Fatalf("seed %d/%d: detectors saw different event counts", seed, s)
			}
		}
	}
}

func TestDJITDetectsSimpleRace(t *testing.T) {
	prog := lang.MustCompile(`
		global g = 0;
		func w() { g = g + 1; }
		func main() {
			var t1 = spawn w();
			var t2 = spawn w();
			join(t1); join(t2);
		}
	`)
	found := false
	for s := uint64(1); s <= 8; s++ {
		d := NewDJIT()
		if _, err := interp.Run(interp.Config{
			Prog: prog, Tracer: d, Choose: sched.NewSeeded(s), Quantum: 2,
			Masks: interp.Masks{Block: make([]bool, len(prog.Blocks))},
		}); err != nil {
			t.Fatal(err)
		}
		if d.HasRaces() {
			found = true
		}
	}
	if !found {
		t.Fatal("DJIT missed an obvious race on all seeds")
	}
}

func TestDJITNoFalseRaceWhenLocked(t *testing.T) {
	prog := lang.MustCompile(`
		global g = 0;
		global m = 0;
		func w() {
			lock(&m);
			g = g + 1;
			unlock(&m);
		}
		func main() {
			var t1 = spawn w();
			var t2 = spawn w();
			join(t1); join(t2);
		}
	`)
	for s := uint64(1); s <= 8; s++ {
		d := NewDJIT()
		if _, err := interp.Run(interp.Config{
			Prog: prog, Tracer: d, Choose: sched.NewSeeded(s), Quantum: 2,
			Masks: interp.Masks{Block: make([]bool, len(prog.Blocks))},
		}); err != nil {
			t.Fatal(err)
		}
		if d.HasRaces() {
			t.Fatalf("seed %d: false race: %v", s, d.RacyAddrs())
		}
	}
}
