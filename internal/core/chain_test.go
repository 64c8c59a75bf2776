package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
)

// perlShapedSrc is the perl workload's rollback in miniature: opcode
// dispatch through a function table, where profiling never selects
// opRare. Selecting it refutes the dispatch site's callee set, and the
// next step enters opRare's entry block, which profiling never visited.
const perlShapedSrc = `
	global acc = 0;
	global ftab[3];
	func opAdd(v) { acc = acc + v; return 0; }
	func opMul(v) { acc = acc * v; return 0; }
	func opRare(v) { acc = acc - v * 3; return 0; }
	func main() {
		ftab[0] = opAdd;
		ftab[1] = opMul;
		ftab[2] = opRare;
		var n = ninputs();
		var i = 0;
		while (i + 1 < n) {
			var h = ftab[input(i)];
			h(input(i + 1));
			i = i + 2;
		}
		print(acc);
	}
`

// rareBranchesSrc has three input-guarded branches that profiling on
// small inputs never enters: an execution refutes one
// likely-unreachable block per large input, in order.
const rareBranchesSrc = `
	global g = 0;
	global h = 0;
	func main() {
		if (input(0) > 50) { g = input(1); }
		if (input(2) > 50) { h = input(3); }
		if (input(4) > 50) { g = g + h; }
		print(g + h);
	}
`

// chainSlicer profiles src on profile and builds its OptSlice on the
// last print.
func chainSlicer(t *testing.T, src string, profile ...int64) *OptSlice {
	t.Helper()
	prog := lang.MustCompile(src)
	pr := mustProfile(t, prog, gen(profile...), 10)
	o, err := NewOptSlice(prog, pr.DB, lastPrintOf(t, prog), 4096)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// checkChain runs e under o and checks the report against the chain
// replayed by hand: the refuted facts' kinds, what re-executed the run,
// a result equal to the sound analysis's, and Stats, IC and CheckEvents
// that sum every attempt. Each attempt is replayed on a fresh detector
// for its database, the previous one refined by the fact its
// predecessor refuted.
func checkChain(t *testing.T, o *OptSlice, e Execution, wantRefuted []ViolationKind, wantTo RollbackTarget) *SliceReport {
	t.Helper()
	rep, err := o.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []ViolationKind
	for _, v := range rep.Refuted {
		kinds = append(kinds, v.Kind)
	}
	if !rep.RolledBack || rep.RolledBackTo != wantTo || !reflect.DeepEqual(kinds, wantRefuted) {
		t.Fatalf("rolledBack=%v to %q refuted %v, want a rollback to %q refuting %v", rep.RolledBack, rep.RolledBackTo, rep.Refuted, wantTo, wantRefuted)
	}
	if !reflect.DeepEqual(rep.Violation, rep.Refuted[0]) {
		t.Errorf("Violation %v is not the first refuted fact %v", rep.Violation, rep.Refuted[0])
	}
	sound, err := o.sound(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Slice.Equal(sound.Slice) || !reflect.DeepEqual(rep.Output, sound.Output) {
		t.Fatalf("slice %v differs from the sound analysis's %v", rep.Slice.Instrs, sound.Slice.Instrs)
	}

	var want Outcome
	db := o.DB.Clone()
	for i, v := range rep.Refuted {
		gen, err := NewOptSlice(o.Prog, db, o.Criterion, o.budget)
		if err != nil {
			t.Fatal(err)
		}
		_, aborted, err := gen.try(e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if aborted == nil || !reflect.DeepEqual(aborted.Violation, v) {
			t.Fatalf("attempt %d: replay refutes %v, want %v", i, aborted, v)
		}
		want.Stats.Add(aborted.Stats)
		want.IC.Add(aborted.IC)
		want.CheckEvents += aborted.CheckEvents
		db = db.Clone()
		v.Refine(o.Prog, db)
	}
	final := sound
	if wantTo == RollbackRefined {
		gen, err := NewOptSlice(o.Prog, db, o.Criterion, o.budget)
		if err != nil {
			t.Fatal(err)
		}
		if final, _, err = gen.try(e, RunOptions{}); err != nil || final == nil {
			t.Fatalf("the last refined generation does not run clean: %v", err)
		}
	}
	want.Stats.Add(final.Stats)
	want.IC.Add(final.IC)
	want.CheckEvents += final.CheckEvents
	if rep.Stats != want.Stats || rep.IC != want.IC || rep.CheckEvents != want.CheckEvents {
		t.Errorf("counts do not sum every attempt:\n got stats %+v ic %+v checks %d\nwant stats %+v ic %+v checks %d",
			rep.Stats, rep.IC, rep.CheckEvents, want.Stats, want.IC, want.CheckEvents)
	}
	if rep.TraceNodes != final.TraceNodes {
		t.Errorf("TraceNodes = %d, want the re-execution's %d", rep.TraceNodes, final.TraceNodes)
	}
	return rep
}

// A perl-shaped rollback is served by one refined generation, with no
// sound run: the callee-set rule also marks the callee's entry block
// visited. Refining the callee set alone leaves a generation the same
// execution refutes again, at that block.
func TestChainPerlShapedOneRefinement(t *testing.T) {
	o := chainSlicer(t, perlShapedSrc, 0, 5, 1, 3, 0, 2, 1, 4)
	e := Execution{Inputs: []int64{2, 5, 0, 1}, Seed: 2}
	rep := checkChain(t, o, e, []ViolationKind{ViolationCalleeSet}, RollbackRefined)

	v := rep.Violation
	db := o.DB.Clone()
	if !db.WidenCallees(v.Site, v.Callee) {
		t.Fatalf("%v: callee set already holds the callee", v)
	}
	calleeOnly, err := NewOptSlice(o.Prog, db, o.Criterion, o.budget)
	if err != nil {
		t.Fatal(err)
	}
	again, err := calleeOnly.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entry := o.Prog.Funcs[v.Callee].Entry.ID
	if w := again.Violation; w.Kind != ViolationUnreachableBlock || w.Site != entry {
		t.Fatalf("widening the callee set alone: violation %v, want the callee's entry block %d", w, entry)
	}
}

// Two refuted facts: the chain's second refinement runs clean.
func TestChainTwoFactsResolveAtK(t *testing.T) {
	o := chainSlicer(t, rareBranchesSrc, 0, 0, 0, 0, 0)
	checkChain(t, o, Execution{Inputs: []int64{99, 1, 99, 2, 0}, Seed: 1},
		[]ViolationKind{ViolationUnreachableBlock, ViolationUnreachableBlock}, RollbackRefined)
}

// A third refuted fact exceeds maxRefinements: the sound analysis
// re-executes.
func TestChainLongerThanKFallsBackToSound(t *testing.T) {
	if maxRefinements != 2 {
		t.Fatalf("maxRefinements = %d: the program refutes three facts", maxRefinements)
	}
	o := chainSlicer(t, rareBranchesSrc, 0, 0, 0, 0, 0)
	checkChain(t, o, Execution{Inputs: []int64{99, 1, 99, 2, 99}, Seed: 1},
		[]ViolationKind{ViolationUnreachableBlock, ViolationUnreachableBlock, ViolationUnreachableBlock}, RollbackSound)
	if n := len(o.gens.list); n != maxRefinements {
		t.Errorf("%d refined generations built, want %d", n, maxRefinements)
	}
}

// A trace overflow refines nothing: the run goes straight to the sound
// analysis, which (tracing a superset) overflows the same bound, so
// the rollback fails instead of returning a truncated trace.
func TestChainTraceLimitGoesToSound(t *testing.T) {
	o := chainSlicer(t, rareBranchesSrc, 0, 0, 0, 0, 0)
	o.MaxTraceNodes = 2
	e := Execution{Inputs: []int64{0, 0, 0, 0, 0}, Seed: 1}
	_, soundErr := o.sound(e, RunOptions{})
	if !errors.Is(soundErr, interp.ErrAborted) {
		t.Fatalf("sound run past its trace bound: err = %v", soundErr)
	}
	rep, err := o.Run(e, RunOptions{})
	if !errors.Is(err, interp.ErrAborted) || !strings.Contains(err.Error(), "rollback re-execution failed") {
		t.Fatalf("speculative run past its trace bound: err = %v, report %+v", err, rep)
	}
	if len(o.gens.list) != 0 {
		t.Errorf("a trace overflow built %d refined generations", len(o.gens.list))
	}
}

// countingGen is an optimistic generation whose attempts raise a
// scripted violation and whose sound analysis reports NilSites [7] in
// ten steps; refined counts the generations the chain asks for.
type countingGen struct {
	prog    *ir.Program
	db      *invariants.DB
	v       Violation
	refines *int
}

func (g countingGen) sound(Execution, RunOptions) (*NullReport, error) {
	return &NullReport{NilSites: []int{7}, Outcome: Outcome{Stats: interp.Stats{Steps: 10}}}, nil
}

func (g countingGen) try(Execution, RunOptions) (*NullReport, *Outcome, error) {
	return nil, &Outcome{Stats: interp.Stats{Steps: 1}, Violation: g.v}, nil
}

func (g countingGen) facts() (*ir.Program, *invariants.DB) { return g.prog, g.db }

func (g countingGen) refined(db *invariants.DB) (optimistic[*NullReport], error) {
	*g.refines++
	return countingGen{g.prog, db, g.v, g.refines}, nil
}

// A violation of a kind with no refinement rule goes straight to the
// sound analysis, whose result the chain returns with the aborted
// attempt charged.
func TestChainNonRefinableGoesToSound(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	for _, kind := range []ViolationKind{ViolationTraceLimit, "unknown-kind"} {
		refines := 0
		g := countingGen{prog, invariants.NewDB(), Violation{Kind: kind, Site: -1, Callee: -1}, &refines}
		rep, err := speculate[*NullReport](g, Execution{}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if refines != 0 || rep.RolledBackTo != RollbackSound || len(rep.Refuted) != 1 || rep.Stats.Steps != 11 || !reflect.DeepEqual(rep.NilSites, []int{7}) {
			t.Errorf("%s: %d refinements, report %+v; want the sound result with one aborted step charged", kind, refines, rep)
		}
	}
}

// Concurrent runs of one detector build each refined generation once
// and all get the sequential report.
func TestChainConcurrentRunsShareGenerations(t *testing.T) {
	o := chainSlicer(t, rareBranchesSrc, 0, 0, 0, 0, 0)
	execs := []Execution{
		{Inputs: []int64{99, 1, 0, 0, 0}, Seed: 1},
		{Inputs: []int64{99, 1, 99, 2, 0}, Seed: 2},
		{Inputs: []int64{99, 1, 0, 0, 0}, Seed: 3},
	}
	ref := chainSlicer(t, rareBranchesSrc, 0, 0, 0, 0, 0)
	want := make([]*SliceReport, len(execs))
	for i, e := range execs {
		rep, err := ref.Run(e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range execs {
				i := (k + g) % len(execs)
				got, err := o.Run(execs[i], RunOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d exec %d: report differs from the sequential one", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	// The refined databases: branch 1 visited, and branches 1 and 2.
	if n := len(o.gens.list); n != 2 {
		t.Errorf("%d refined generations, want 2", n)
	}
}

// The generation memo builds each database once however many callers
// race for it, and keeps at most maxGenerations.
func TestGenerationsBuildOnceAndBound(t *testing.T) {
	var g generations[int, struct{}]
	var builds atomic.Int32
	dbs := make([]*invariants.DB, maxGenerations+1)
	for i := range dbs {
		dbs[i] = invariants.NewDB()
		dbs[i].MarkVisited(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, db := range dbs[:maxGenerations] {
				got, err := g.get(db, func() (int, error) { builds.Add(1); return i, nil })
				if err != nil || got != i {
					t.Errorf("generation %d: got %d, %v", i, got, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != maxGenerations {
		t.Fatalf("%d builds for %d databases", n, maxGenerations)
	}
	// One more database evicts the least recently used, dbs[0], which
	// is then rebuilt on its next use.
	for _, db := range dbs[1:maxGenerations] {
		if _, err := g.get(db, func() (int, error) { builds.Add(1); return 0, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.get(dbs[maxGenerations], func() (int, error) { builds.Add(1); return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if len(g.list) != maxGenerations {
		t.Fatalf("%d generations kept, want at most %d", len(g.list), maxGenerations)
	}
	if _, err := g.get(dbs[0], func() (int, error) { builds.Add(1); return 0, fmt.Errorf("rebuilt") }); err == nil {
		t.Fatal("the least recently used generation was not evicted")
	}
}
