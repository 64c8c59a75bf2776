package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/mhp"
	"oha/internal/nullcheck"
	"oha/internal/pointsto"
	"oha/internal/progen"
	"oha/internal/staticrace"
	"oha/internal/workloads"
)

// The static half of the soundness argument (§2.3): every likely
// invariant a predicated static result relies on is checked at run
// time. TestChecksCoverReads derives which fact kinds each client's
// predicated result reads instead of listing them: it removes one kind
// at a time from a profiled database and re-solves the client's
// predicated analysis. A kind whose removal changes the result is read,
// and the detector built on the profiled database must check it.

// readsProgram is one program of the reads corpus with its profiling
// executions.
type readsProgram struct {
	name  string
	prog  *ir.Program
	execs []Execution
}

// readsProfileRuns is the number of profiling executions per program.
const readsProfileRuns = 8

// readsCorpus returns every workload program, profiled on its
// evaluation inputs, and 25 seeds of each generated program family,
// profiled on the seed's first input vector.
func readsCorpus(t *testing.T) []readsProgram {
	var out []readsProgram
	for _, w := range workloads.All() {
		p := readsProgram{name: w.Name, prog: w.Prog()}
		for run := 0; run < readsProfileRuns; run++ {
			p.execs = append(p.execs, workCountProfileExec(w, run))
		}
		out = append(out, p)
	}
	families := []struct {
		name string
		src  func(seed uint64) string
	}{
		{"progen", func(seed uint64) string { return progen.Generate(seed, progen.DefaultConfig()) }},
		{"dispatch", func(seed uint64) string { return progen.GenerateDispatch(seed, progen.DefaultDispatchConfig()) }},
		{"nullable", func(seed uint64) string { return progen.GenerateNullable(seed, progen.DefaultNullableConfig()) }},
	}
	for _, f := range families {
		for seed := uint64(0); seed < 25; seed++ {
			prog, err := lang.Compile(f.src(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.name, seed, err)
			}
			p := readsProgram{name: fmt.Sprintf("%s%d", f.name, seed), prog: prog}
			for run := 0; run < readsProfileRuns; run++ {
				p.execs = append(p.execs, Execution{Inputs: randomInputs(seed)[0], Seed: uint64(run + 1)})
			}
			out = append(out, p)
		}
	}
	return out
}

// withoutKind returns a copy of db, a database of prog, that assumes
// nothing of kind k.
func withoutKind(t *testing.T, prog *ir.Program, db *invariants.DB, k ViolationKind) *invariants.DB {
	out := db.Clone()
	switch k {
	case ViolationUnreachableBlock:
		for _, b := range prog.Blocks {
			out.Visited.Add(b.ID)
		}
	case ViolationCalleeSet:
		out.Callees = nil
	case ViolationSingletonSpawn:
		out.SingletonSpawns = &bitset.Set{}
	case ViolationGuardingLock:
		out.MustAliasLocks = map[invariants.LockPair]bool{}
	case ViolationElidedLockRace:
		out.ElidableLocks = &bitset.Set{}
	case ViolationCallContext:
		out.Contexts = nil
	case ViolationNonNull:
		out.NonNullLoads = &bitset.Set{}
	default:
		t.Fatalf("no database without %s facts", k)
	}
	return out
}

// predicatedResults solves each client's predicated static analysis of
// prog under db and fingerprints its result: OptFT's masks, OptSlice's
// static slice of crit (nil: no slice) with its analysis type, and
// OptNull's proof. The solvers run uncached.
func predicatedResults(prog *ir.Program, db *invariants.DB, crit *ir.Instr, workers int) (map[string]string, error) {
	pt, err := pointsto.AnalyzeParallel(prog, ctxs.NewCI(prog), db, workers)
	if err != nil {
		return nil, err
	}
	mem, sync := staticrace.AnalyzeParallel(prog, pt, mhp.Analyze(prog, pt, db), db, workers).Masks(db)
	proof := nullcheck.Analyze(prog, pt, db)
	out := map[string]string{
		"race":      fmt.Sprint(mem, sync),
		"nullcheck": proof.Discharged.String() + " " + proof.UsedFacts.String(),
	}
	if crit != nil {
		sl, at, err := BuildSlicer(prog, SlicerFactsOf(db, workCountBudget), nil)
		if err != nil {
			return nil, err
		}
		out["slice"] = string(at) + " " + sl.BackwardSlice(crit).Instrs.String()
	}
	return out, nil
}

// hasTable reports whether c checks kind k.
func hasTable(c *checks, k ViolationKind) bool {
	switch k {
	case ViolationUnreachableBlock:
		return c.luc != nil
	case ViolationCalleeSet:
		return c.callees != nil
	case ViolationSingletonSpawn:
		return c.spawnOnce != nil
	case ViolationGuardingLock:
		return c.lockGroup != nil
	case ViolationCallContext:
		return c.ctx != nil
	case ViolationNonNull:
		return c.nonNull != nil
	}
	return false
}

// readsRelation profiles every corpus program and derives which fact
// kinds each client's predicated result reads, profiling and solving
// on workers. It fails t for every read kind the program's detector
// does not check, and returns the programs reading each "client kind"
// cell.
func readsRelation(t *testing.T, corpus []readsProgram, workers int) map[string][]string {
	rel := map[string][]string{}
	cfg := StaticConfig{Workers: workers}
	for _, p := range corpus {
		db, err := ProfileNWith(p.prog, p.execs, workers, nil)
		if err != nil {
			t.Fatalf("%s: profile: %v", p.name, err)
		}
		var crit *ir.Instr
		if prints := Prints(p.prog); len(prints) > 0 {
			crit = prints[len(prints)-1]
		}
		base, err := predicatedResults(p.prog, db, crit, workers)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		ft, err := NewOptFTStatic(p.prog, db, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		null, err := NewOptNull(p.prog, db, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		checked := map[string]func(ViolationKind) bool{
			"race": func(k ViolationKind) bool {
				if k == ViolationElidedLockRace {
					return !ft.DB.ElidableLocks.IsEmpty() // try's suspect
				}
				return hasTable(ft.checks, k)
			},
			"nullcheck": func(k ViolationKind) bool { return hasTable(null.checks, k) },
		}
		if crit != nil {
			sl, err := NewOptSliceStatic(p.prog, db, crit, workCountBudget, cfg)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			checked["slice"] = func(k ViolationKind) bool { return hasTable(sl.checks, k) }
		}
		for _, r := range kindRules {
			if !r.refinable {
				continue
			}
			k := r.v.Kind
			res, err := predicatedResults(p.prog, withoutKind(t, p.prog, db, k), crit, workers)
			if err != nil {
				t.Fatalf("%s without %s: %v", p.name, k, err)
			}
			for client, want := range base {
				if res[client] == want {
					continue
				}
				rel[client+" "+string(k)] = append(rel[client+" "+string(k)], p.name)
				if !checked[client](k) {
					t.Errorf("%s: the predicated %s result reads %s facts, but its detector does not check them", p.name, client, k)
				}
			}
		}
	}
	return rel
}

// TestChecksCoverReads: every fact kind whose removal changes a
// client's predicated result on a corpus program has a check in that
// program's detector, with the same relation at profiling and solving
// workers 1 and 8 (derived side by side).
func TestChecksCoverReads(t *testing.T) {
	corpus := readsCorpus(t)
	var rels [2]map[string][]string
	t.Run("workers", func(t *testing.T) {
		for i, workers := range []int{1, 8} {
			t.Run(strconv.Itoa(workers), func(t *testing.T) {
				t.Parallel()
				rels[i] = readsRelation(t, corpus, workers)
			})
		}
	})
	if t.Failed() {
		return
	}
	rel := rels[0]
	if !reflect.DeepEqual(rel, rels[1]) {
		t.Fatalf("reads at 1 and 8 workers differ:\n%v\n%v", rel, rels[1])
	}
	cells := make([]string, 0, len(rel))
	for cell := range rel {
		cells = append(cells, cell)
	}
	sort.Strings(cells)
	for _, cell := range cells {
		t.Logf("%s: read on %d of %d programs", cell, len(rel[cell]), len(corpus))
		client, kind, _ := strings.Cut(cell, " ")
		if field := kindField[ViolationKind(kind)]; !slices.Contains(projectionFields(clientInputs[client]...), field) {
			t.Errorf("%s reads %s facts, but no projection its result is computed from has a %s field", client, kind, field)
		}
	}
}

// kindField names the database field holding each kind's facts.
var kindField = map[ViolationKind]string{
	ViolationUnreachableBlock: "Visited",
	ViolationCalleeSet:        "Callees",
	ViolationSingletonSpawn:   "SingletonSpawns",
	ViolationGuardingLock:     "MustAliasLocks",
	ViolationElidedLockRace:   "ElidableLocks",
	ViolationCallContext:      "Contexts",
	ViolationNonNull:          "NonNullLoads",
}

// clientInputs lists the projections each client's predicated result
// is computed from: those of the solves it memoizes, plus, for race,
// the elidable lock set that Masks applies after the solve (the
// compiled image's key covers it through the masks digest).
var clientInputs = map[string][]any{
	"race":      {pointsto.Facts{}, mhp.Facts{}, staticrace.Facts{}, struct{ ElidableLocks *bitset.Set }{}},
	"nullcheck": {pointsto.Facts{}, nullcheck.Facts{}},
	"slice":     {SlicerFacts{}},
}

// projectionFields returns the field names of the projection structs,
// descending into a nested points-to projection (SlicerFacts').
func projectionFields(projections ...any) []string {
	var out []string
	var walk func(reflect.Type)
	walk = func(t reflect.Type) {
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.Type == reflect.TypeOf(&pointsto.Facts{}) {
				walk(f.Type.Elem())
			} else {
				out = append(out, f.Name)
			}
		}
	}
	for _, p := range projections {
		walk(reflect.TypeOf(p))
	}
	return out
}

// TestNilCalleesChecksNoCallee: a database whose callee-set invariant
// is switched off (a nil Callees map) assumes no callee set, so no
// client checks one. On the profiled executions of two programs that
// dispatch through function values, no run of any client refutes a
// callee-set fact.
func TestNilCalleesChecksNoCallee(t *testing.T) {
	for _, name := range []string{"perl", "dispatch-mono"} {
		w := workloads.ByName(name)
		prog := w.Prog()
		execs := make([]Execution, readsProfileRuns)
		for run := range execs {
			execs[run] = workCountProfileExec(w, run)
		}
		db, err := ProfileNWith(prog, execs, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		db.Callees = nil
		cfg := StaticConfig{Workers: 1}
		ft, err := NewOptFTStatic(prog, db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := NewOptSliceStatic(prog, db, workCountCriterion(prog), workCountBudget, cfg)
		if err != nil {
			t.Fatal(err)
		}
		null, err := NewOptNull(prog, db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for client, n := range map[string]int{
			"race":      refutedCallees(t, ft.Run, execs),
			"slice":     refutedCallees(t, sl.Run, execs),
			"nullcheck": refutedCallees(t, null.Run, execs),
		} {
			if n > 0 {
				t.Errorf("%s %s: %d callee-set facts refuted in %d runs without callee facts", name, client, n, len(execs))
			}
		}
	}
}

// refutedCallees returns how many callee-set facts run's reports on
// execs refute.
func refutedCallees[R Report](t *testing.T, run func(Execution, RunOptions) (R, error), execs []Execution) int {
	n := 0
	for _, e := range execs {
		rep, err := run(e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Base().Refuted {
			if v.Kind == ViolationCalleeSet {
				n++
			}
		}
	}
	return n
}
