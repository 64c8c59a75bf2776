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
