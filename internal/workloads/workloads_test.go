package workloads

import (
	"testing"

	"oha/internal/core"
	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/sched"
)

func TestRegistryComplete(t *testing.T) {
	if got := len(Races()); got != 14 {
		t.Errorf("race suite = %d workloads, want 14", got)
	}
	if got := len(Slices()); got != 7 {
		t.Errorf("slice suite = %d workloads, want 7", got)
	}
	if got := len(Nulls()); got != 2 {
		t.Errorf("null suite = %d workloads, want 2", got)
	}
	if got := len(All()); got != 25 {
		t.Errorf("total workloads = %d, want 25", got)
	}
	if ByName("lusearch") == nil || ByName("zlib") == nil {
		t.Error("ByName lookup failed")
	}
	if ByName("nosuch") != nil {
		t.Error("ByName invented a workload")
	}
}

func TestAllCompileAndRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Prog()
			if err := prog.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			// Null workloads may deref nil on testing inputs; the
			// always-check mask recovers those deterministically.
			var nullMask []bool
			if w.Kind == Null {
				nullMask = make([]bool, len(prog.Instrs))
				for _, in := range prog.Instrs {
					if in.Op == ir.OpLoad || in.Op == ir.OpStore {
						nullMask[in.ID] = true
					}
				}
			}
			for run := 0; run < 3; run++ {
				in := w.GenInput(run)
				res, err := interp.Run(interp.Config{
					Prog:   prog,
					Inputs: in,
					Choose: sched.NewSeeded(uint64(run + 1)),
					Masks:  interp.Masks{Null: nullMask},
				})
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if len(res.Output) == 0 {
					t.Fatalf("run %d: no output", run)
				}
				if res.Stats.Steps < 500 {
					t.Errorf("run %d: suspiciously small workload (%d steps)", run, res.Stats.Steps)
				}
				if res.Stats.Steps > 3_000_000 {
					t.Errorf("run %d: workload too large for the harness (%d steps)", run, res.Stats.Steps)
				}
			}
		})
	}
}

func TestInputGenDeterministic(t *testing.T) {
	for _, w := range All() {
		a := w.GenInput(7)
		b := w.GenInput(7)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic input length", w.Name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic input", w.Name)
			}
		}
	}
}

// Every workload must be dynamically race-free: a real race would make
// OptFT's elided-lock runs permanently roll back and would put false
// blame on the methodology rather than the program.
func TestRaceWorkloadsDynamicallyRaceFree(t *testing.T) {
	for _, w := range Races() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Prog()
			for run := 0; run < 3; run++ {
				e := core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
				rep, err := core.RunFastTrack(prog, e, core.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Races) != 0 {
					t.Fatalf("run %d: dynamic races: %v", run, rep.Details)
				}
			}
		})
	}
}

// The five benchmarks right of Figure 5's red line must be provably
// race-free by the *sound* static analysis; the other nine must not.
func TestStaticRaceFreedomMatchesPaperGrouping(t *testing.T) {
	for _, w := range Races() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			hy, err := core.NewHybridFT(w.Prog(), core.StaticConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			free := hy.Static.RaceFree()
			if free != w.RaceFree {
				t.Errorf("sound race-freedom = %v, workload expects %v (%d pairs)",
					free, w.RaceFree, len(hy.Static.Pairs))
			}
		})
	}
}

// Every slicing workload must yield a non-trivial dynamic slice from
// its final print.
func TestSliceWorkloadsHaveNonTrivialSlices(t *testing.T) {
	for _, w := range Slices() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Prog()
			var criterion *ir.Instr
			for _, in := range prog.Instrs {
				if in.Op == ir.OpPrint {
					criterion = in
				}
			}
			e := core.Execution{Inputs: w.GenInput(0), Seed: 1}
			rep, err := core.RunFullGiri(prog, criterion, e, core.RunOptions{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Slice == nil || rep.Slice.Size() < 5 {
				t.Fatalf("trivial dynamic slice: %v", rep.Slice)
			}
		})
	}
}

// Profiling must converge for every workload within a bounded number
// of runs.
func TestProfilingConverges(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			pr, err := core.Profile(w.Prog(), func(run int) core.Execution {
				return core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
			}, 64)
			if err != nil {
				t.Fatal(err)
			}
			if pr.Runs >= 64 && w.Name != "go" {
				t.Errorf("did not converge in 64 runs (%d)", pr.Runs)
			}
			c := pr.DB.Count()
			if c.VisitedBlocks == 0 {
				t.Error("no visited blocks profiled")
			}
		})
	}
}

// wantDigests pins every workload's program digest (the SHA-256 of its
// printed IR). The digest keys cached artifacts and is embedded in
// compiled images, so the IR printer's output must not change.
var wantDigests = map[string]string{
	"batik":         "8690e745ad365bf03007ad41ebe817b90ae3454975ca577711666b287c6f6d6f",
	"crypt":         "7ca4eb3e240f7d5100932ece2c5ca946acdd883a2800d576e89b0d3fd18a7850",
	"dispatch-mono": "d278744326c994b6b992d39cf21da5f50ac6e8ba6bdd15fb3b10c9110985c6da",
	"dispatch-poly": "db3e58a62ed8a34085f38444bcba01243aa3fb59385ef9839caf5ac46fd2f6c9",
	"go":            "7f3b5370aa09fbb8900b723d7610c406b19bb811b23d4efc87718225077b33bc",
	"lufact":        "a2c29a3feefea8d827eee2c16b6356de1caf02c657e7814e4385028ac0ed2659",
	"luindex":       "cab1f8e2b7d2ec770156dc72adb2de1f21c54e8549c75031908f352b1d8fcb32",
	"lusearch":      "2aa426f3af3fe9205df7a35de6c3de64b86b9ceedd1e97772edbe380796e77e8",
	"moldyn":        "6860ad0f95b641dc618a1fbfd338f699a30d4fcea7e2e11ee2808caf9db4ef76",
	"montecarlo":    "b3429c1563671247a25abda0af604f98d0a234aa0c2352ac5d778938b34a1122",
	"nginx":         "a41eef2f23dac74c6933317bd5f2dfc22eabd99f02c1fc1a1aa714d564312d54",
	"null-flaky":    "0b11f065286cfafc068404e56f574326c019a8598ac35754a59fec0c25a7f53d",
	"null-mono":     "a9fed32ef109218a75d498c4f38e9c7364add5b438c5cdd2952867e461a8e834",
	"perl":          "1305f708c1b2e835cf718e93cd9d233cd7f9755e70faea3306c78c8d903f9edd",
	"pmd":           "08a613ec519bed19a68b421ad354fb68b1af76da57f7117a06bd8e4113fd0744",
	"raytracer":     "364e966fe4124323e36f9d8ef3a855e712b72c5b13cd0bc2351327a896745431",
	"redis":         "8ca32422df111ef9cc739304a1802b6b91b871fbe9f7852fbd93aba15c456c1c",
	"series":        "151a271577c98279b2650d34dac0d5779266e00d53e817f8ebf3344ac10be38a",
	"sor":           "a0b1c45c2d8c0f06006c727937e0580238be6b5281f335d443314846f0deadc7",
	"sparse":        "4726ddb629d0a2eccaf3f7ea18ddbb0da67982dccd9f3890327dfb70b8f29836",
	"sphinx":        "e13713b7471b71c0c336952faaf9076828e0498987d44fc91e670f091301f804",
	"sunflow":       "ab099a6e9770078e7a95f3bd86dfd53372375ebdf74ab09baa3c5c1e8fa4131a",
	"vim":           "e554dfba1ba7fb6f4babd2c0b113c7fea5353881285b7a772c36b5a5a722ac49",
	"xalan":         "6152757e2c7082eafa1dba828927a6f511effce08430690d726d92ef81e988c6",
	"zlib":          "76da9877d54167649159eb7e8401b5fbdf778dda8e341149733e8dc0acb722de",
}

func TestProgramDigestsPinned(t *testing.T) {
	all := All()
	if len(all) != len(wantDigests) {
		t.Errorf("%d workloads, %d pinned digests", len(all), len(wantDigests))
	}
	for _, w := range all {
		if got := w.Prog().Digest(); got != wantDigests[w.Name] {
			t.Errorf("%s: digest %s, want %s", w.Name, got, wantDigests[w.Name])
		}
	}
}
