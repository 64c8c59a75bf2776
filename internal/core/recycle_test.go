package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"oha/internal/dynslice"
	"oha/internal/fasttrack"
	"oha/internal/ir"
	"oha/internal/workloads"
)

// analysis is one optimistic analysis of a workload and the test
// executions it runs.
type analysis struct {
	name  string
	run   func(Execution) (any, error)
	execs []Execution
}

// workloadAnalysis profiles workload name the way the evaluation
// harness does and builds its optimistic analysis (OptFT with validated
// custom synchronization for race workloads, OptSlice on the last print
// for slicing workloads, OptNull for null workloads).
func workloadAnalysis(t *testing.T, name string, runs int) analysis {
	t.Helper()
	w := workloads.ByName(name)
	prog := w.Prog()
	pr := mustProfile(t, prog, func(run int) Execution {
		return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
	}, 32)
	a := analysis{name: name}
	for i := 0; i < runs; i++ {
		a.execs = append(a.execs, Execution{Inputs: w.GenInput(1000 + i), Seed: uint64(2000 + i)})
	}
	if w.Kind == workloads.Race {
		o, err := NewOptFT(prog, pr.DB)
		if err != nil {
			t.Fatal(err)
		}
		a.run = func(e Execution) (any, error) { return o.Run(e, RunOptions{}) }
		return a
	}
	if w.Kind == workloads.Null {
		o, err := NewOptNull(prog, pr.DB, StaticConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		a.run = func(e Execution) (any, error) { return o.Run(e, RunOptions{}) }
		return a
	}
	var crit *ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpPrint {
			crit = in
		}
	}
	o, err := NewOptSlice(prog, pr.DB, crit, 4096)
	if err != nil {
		t.Fatal(err)
	}
	a.run = func(e Execution) (any, error) { return o.Run(e, RunOptions{}) }
	return a
}

// freshReports runs every execution of a on tracers and detectors that
// never ran: two collections empty the dynslice and fasttrack pools.
func freshReports(t *testing.T, a analysis) []any {
	t.Helper()
	out := make([]any, len(a.execs))
	for i, e := range a.execs {
		runtime.GC()
		runtime.GC()
		rep, err := a.run(e)
		if err != nil {
			t.Fatalf("%s/%d: %v", a.name, i, err)
		}
		out[i] = rep
	}
	return out
}

func rolledBack(rep any) bool {
	switch r := rep.(type) {
	case *SliceReport:
		return r.RolledBack
	case *RaceReport:
		return r.RolledBack
	case *NullReport:
		return r.RolledBack
	}
	return false
}

// Runs repeated on one analysis instance recycle the dynamic analysis
// state of earlier runs, rolled-back ones included; every report —
// slices, races, Stats, IC counts with the engine's fast-path hits —
// must equal the report of a run on fresh state.
func TestRecycledRunsEqualFresh(t *testing.T) {
	for _, name := range []string{"perl", "vim", "pmd", "montecarlo", "null-mono", "null-flaky"} {
		a := workloadAnalysis(t, name, 8)
		want := freshReports(t, a)
		rollbacks := 0
		for _, rep := range want {
			if rolledBack(rep) {
				rollbacks++
			}
		}
		if name == "perl" && (rollbacks == 0 || rollbacks == len(want)) {
			t.Fatalf("perl rolled back %d of %d runs, want some but not all", rollbacks, len(want))
		}
		for pass := 0; pass < 2; pass++ {
			for k := range a.execs {
				i := k
				if pass == 1 {
					i = len(a.execs) - 1 - k
				}
				got, err := a.run(a.execs[i])
				if err != nil {
					t.Fatalf("%s/%d: %v", name, i, err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s/%d pass %d: recycled report differs from fresh:\n got %+v\nwant %+v", name, i, pass, got, want[i])
				}
			}
		}
	}
}

// Daemon workers share one OptSlice, one OptFT and one OptNull. Eight
// goroutines running a mixed list of executions, perl rollbacks
// included, on shared instances must each get exactly the sequential
// reports.
func TestConcurrentRunsShareRecycledState(t *testing.T) {
	var jobs []func() (any, error)
	var want []any
	rollbacks := 0
	for _, a := range []analysis{workloadAnalysis(t, "perl", 6), workloadAnalysis(t, "pmd", 3), workloadAnalysis(t, "raytracer", 2), workloadAnalysis(t, "null-flaky", 4)} {
		for _, e := range a.execs {
			run, e := a.run, e
			rep, err := run(e)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, func() (any, error) { return run(e) })
			want = append(want, rep)
			if rolledBack(rep) {
				rollbacks++
			}
		}
	}
	if rollbacks == 0 {
		t.Fatal("no job rolls back; the shared rollback path would go untested")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				i := (k + g) % len(jobs)
				got, err := jobs[i]()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d job %d: report differs from the sequential one", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// pooled counts the released tracers or detectors draw finds in its
// pool: the draws served without an allocation. draw returns what it
// drew, held until the count is done so that no draw is served twice.
func pooled(draw func() any) int {
	var held []any
	for {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x := draw()
		runtime.ReadMemStats(&after)
		if after.Mallocs != before.Mallocs {
			return len(held)
		}
		held = append(held, x)
	}
}

// A rolled-back run releases each aborted attempt's analysis state
// before the next attempt starts, so the re-execution draws the arena
// the aborted attempt released: after one rolled-back run on emptied
// pools, exactly one slicer (perl) or detector (dispatch-mono) is
// pooled, not one per attempt. The race detector's sync.Pool drops
// released values at random, so a trial may find none; the largest
// count over a few trials must be one.
func TestRollbackReusesReleasedArena(t *testing.T) {
	for _, c := range []struct {
		name string
		draw func(prog *ir.Program) any
	}{
		{"perl", func(prog *ir.Program) any { return dynslice.New(prog, nil) }},
		{"dispatch-mono", func(*ir.Program) any { return fasttrack.New() }},
	} {
		a := workloadAnalysis(t, c.name, 8)
		var e *Execution
		for i, rep := range freshReports(t, a) {
			if rolledBack(rep) {
				e = &a.execs[i]
				break
			}
		}
		if e == nil {
			t.Fatalf("%s: no execution rolls back", c.name)
		}
		prog := workloads.ByName(c.name).Prog()
		most := 0
		for trial := 0; trial < 8; trial++ {
			runtime.GC()
			runtime.GC()
			if _, err := a.run(*e); err != nil {
				t.Fatal(err)
			}
			most = max(most, pooled(func() any { return c.draw(prog) }))
		}
		if most != 1 {
			t.Errorf("%s: %d pooled after a rolled-back run, want 1: the re-execution did not reuse the aborted attempt's state", c.name, most)
		}
	}
}
