package profile

import (
	"bytes"
	"fmt"
	"testing"

	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/workloads"
)

func dbBytes(t *testing.T, db *invariants.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProfileParallelDeterminism is the regression test for the
// parallel convergence loop: for several workloads, profiling with
// worker pools of 1, 2 and 8 must produce an invariant database that is
// byte-identical (canonical serialization) to the sequential loop, with
// the same run count and per-block statistics.
func TestProfileParallelDeterminism(t *testing.T) {
	for _, name := range []string{"lusearch", "zlib", "vim"} {
		w := workloads.ByName(name)
		if w == nil {
			t.Fatalf("unknown workload %s", name)
		}
		prog := w.Prog()
		gen := func(run int) ([]int64, uint64) {
			return w.GenInput(run), uint64(run + 1)
		}
		seqDB, seqStats, err := ConvergeOpt(prog, gen, Options{MaxRuns: 24, StableWindow: 3, Workers: 1})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		want := dbBytes(t, seqDB)
		for _, workers := range []int{1, 2, 8} {
			db, st, err := ConvergeOpt(prog, gen, Options{MaxRuns: 24, StableWindow: 3, Workers: workers})
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			if st.Runs != seqStats.Runs {
				t.Errorf("%s/workers=%d: runs = %d, sequential %d", name, workers, st.Runs, seqStats.Runs)
			}
			if len(st.BlockRuns) != len(seqStats.BlockRuns) {
				t.Errorf("%s/workers=%d: block-run stats diverged", name, workers)
			}
			for b, n := range seqStats.BlockRuns {
				if st.BlockRuns[b] != n {
					t.Errorf("%s/workers=%d: block %d runs = %d, want %d", name, workers, b, st.BlockRuns[b], n)
				}
			}
			if !bytes.Equal(dbBytes(t, db), want) {
				t.Errorf("%s/workers=%d: database not byte-identical to sequential", name, workers)
			}
		}
	}
}

func TestRunAllOrderAndLowestError(t *testing.T) {
	prog := lang.MustCompile(`func main() { print(input(0)); }`)
	execs := make([]Exec, 8)
	for i := range execs {
		execs[i] = Exec{Inputs: []int64{int64(i)}, Seed: uint64(i + 1)}
	}

	// The pool must return per-run databases in execution order.
	seq, err := RunAll(prog, execs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(prog, execs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range execs {
		if !seq[i].Equal(par[i]) {
			t.Errorf("run %d: parallel database differs from sequential", i)
		}
	}

	// On failure, the reported error is the lowest-index one — the
	// error the sequential loop would have surfaced.
	failing := func(p *ir.Program, inputs []int64, seed uint64) (*invariants.DB, error) {
		if seed == 3 || seed == 6 {
			return nil, fmt.Errorf("boom %d", seed)
		}
		return Run(p, inputs, seed)
	}
	if _, err := RunAllWith(prog, execs, 4, failing); err == nil || err.Error() != "boom 3" {
		t.Errorf("error = %v, want boom 3", err)
	}
}

// TestConvergeOptGenOrder pins the generator contract: gen is invoked
// from the calling goroutine, in strictly increasing run order (it may
// run past the convergence point by less than one batch).
func TestConvergeOptGenOrder(t *testing.T) {
	w := workloads.ByName("zlib")
	var calls []int
	_, st, err := ConvergeOpt(w.Prog(), func(run int) ([]int64, uint64) {
		calls = append(calls, run)
		return w.GenInput(run), uint64(run + 1)
	}, Options{MaxRuns: 32, StableWindow: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range calls {
		if c != i {
			t.Fatalf("gen call %d got run %d", i, c)
		}
	}
	if len(calls) < st.Runs {
		t.Errorf("gen called %d times for %d runs", len(calls), st.Runs)
	}
	if over := len(calls) - st.Runs; over >= 4 {
		t.Errorf("gen over-scheduled %d runs past convergence (batch is 4)", over)
	}
}

// TestMergeIntoReportsChange checks the convergence loop's stop signal:
// on profiled databases of every corpus program, MergeInto reports a
// change exactly when the merged database is no longer Equal to the
// accumulator before the merge. Pairs are every ordered pair of one
// program's runs (a run merged into itself included) and each
// program's last run merged into the next program's first run. Each
// pair is also merged with all but one kind of the merged run's facts
// taken from the accumulator, so that each kind's report is checked on
// its own.
func TestMergeIntoReportsChange(t *testing.T) {
	kinds := map[string]func(dst, src *invariants.DB){
		"visited":   func(d, s *invariants.DB) { d.Visited = s.Visited },
		"mustalias": func(d, s *invariants.DB) { d.MustAliasLocks = s.MustAliasLocks },
		"singleton": func(d, s *invariants.DB) { d.SingletonSpawns = s.SingletonSpawns },
		"elidable":  func(d, s *invariants.DB) { d.ElidableLocks = s.ElidableLocks },
		"callees":   func(d, s *invariants.DB) { d.Callees = s.Callees },
		"contexts":  func(d, s *invariants.DB) { d.Contexts = s.Contexts },
		"nonnull":   func(d, s *invariants.DB) { d.NonNullLoads = s.NonNullLoads },
	}
	changed := map[string]int{}
	check := func(name, kind string, acc, run *invariants.DB) {
		before := acc.Clone()
		got, want := acc.MergeInto(run), !before.Equal(acc)
		if got != want {
			t.Errorf("%s, %s facts: MergeInto reported %v, Equal says changed=%v", name, kind, got, want)
		}
		if want {
			changed[kind]++
		}
	}
	pair := func(name string, a, b *invariants.DB) {
		check(name, "all", a.Clone(), b)
		for kind, set := range kinds {
			run := a.Clone()
			set(run, b.Clone())
			check(name, kind, a.Clone(), run)
		}
	}
	var prev *invariants.DB
	for _, c := range profCorpus(t) {
		var dbs []*invariants.DB
		for _, e := range c.execs {
			if db, err := Run(c.prog, e.Inputs, e.Seed); err == nil {
				dbs = append(dbs, db)
			}
		}
		for i, a := range dbs {
			for j, b := range dbs {
				pair(fmt.Sprintf("%s runs %d<-%d", c.name, i, j), a, b)
			}
		}
		if len(dbs) > 0 {
			if prev != nil {
				pair(c.name+" after previous program", dbs[0], prev)
			}
			prev = dbs[len(dbs)-1]
		}
	}
	// Every kind the profiler can change must have been exercised.
	for _, k := range []string{"all", "visited", "mustalias", "singleton", "callees", "contexts", "nonnull"} {
		if changed[k] == 0 {
			t.Errorf("no merge changed %s facts", k)
		}
	}
}
