package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/bitset"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/workloads"
)

// refValidate is the two-pass custom-sync validation loop that
// validateLocks replaces: every round runs each execution under the
// validation plan, and the first round to reach an execution runs it a
// second time under the sound plan. validateLocks must validate the
// same lock set.
func refValidate(o *OptFT, execs []Execution, opts RunOptions) (*bitset.Set, error) {
	tentative := o.Pred.ElidableSyncs.Clone()
	if tentative.IsEmpty() {
		return tentative, nil
	}
	soundReps := make([]*RaceReport, len(execs))
	for {
		bad := false
		for i, e := range execs {
			optRep, err := validationPlan(o.Pred, tentative).fastTrack(e, opts)
			if err != nil {
				return nil, err
			}
			if soundReps[i] == nil {
				if soundReps[i], err = o.Sound.Run(e, opts); err != nil {
					return nil, err
				}
			}
			if !slices.Equal(optRep.Races, soundReps[i].Races) {
				bad = true
				break
			}
		}
		if !bad || tentative.IsEmpty() {
			return tentative, nil
		}
		restore := tentative.Min()
		tentative.Remove(restore)
		for _, in := range o.Prog.Instrs {
			if (in.Op == ir.OpLock || in.Op == ir.OpUnlock) &&
				in.Block.Fn == o.Prog.Instrs[restore].Block.Fn {
				tentative.Remove(in.ID)
			}
		}
	}
}

// validateCase is one program with its profiling and validation
// executions.
type validateCase struct {
	name    string
	prog    *ir.Program
	profile func(run int) Execution
	execs   []Execution
}

// validateCorpus returns the race workloads, the dispatch workloads
// and 25 seeds each of the progen default and dispatch families.
func validateCorpus(t *testing.T) []validateCase {
	t.Helper()
	var out []validateCase
	ws := append(workloads.Races(), workloads.ByName("dispatch-mono"), workloads.ByName("dispatch-poly"))
	for _, w := range ws {
		c := validateCase{name: w.Name, prog: w.Prog(), profile: func(run int) Execution {
			return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
		}}
		for run := 0; run < 4; run++ {
			c.execs = append(c.execs, c.profile(run))
		}
		out = append(out, c)
	}
	compile := func(name, src string, inputs [][]int64) {
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		c := validateCase{name: name, prog: prog, profile: func(run int) Execution {
			return Execution{Inputs: inputs[0], Seed: uint64(run + 1)}
		}}
		for i, in := range inputs {
			c.execs = append(c.execs, Execution{Inputs: in, Seed: uint64(i + 1)}, Execution{Inputs: in, Seed: uint64(i + 11)})
		}
		out = append(out, c)
	}
	for seed := uint64(1); seed <= 25; seed++ {
		compile(fmt.Sprintf("progen%d", seed), progen.Generate(seed, progen.DefaultConfig()), randomInputs(seed))
		compile(fmt.Sprintf("dispatch%d", seed), progen.GenerateDispatch(seed, progen.DefaultDispatchConfig()),
			[][]int64{{0, 9, 4}, {7, 9, 4}})
	}
	return out
}

// sameReport reports whether two race reports agree on everything
// validation and the benchmark counts read.
func sameReport(a, b *RaceReport) bool {
	return slices.Equal(a.Races, b.Races) && slices.Equal(a.RacyAddrs, b.RacyAddrs) && a.FTChecks == b.FTChecks
}

// checkOnePass requires one interpretation under dualPlan to
// give, for each detector, the report of a separate run under its own
// plan.
func checkOnePass(t *testing.T, name string, soundPlan, valPlan *plan, execs []Execution) {
	t.Helper()
	both := dualPlan(soundPlan, valPlan)
	for i, e := range execs {
		val, sound, err := validateWithSound(both, valPlan, soundPlan, e, RunOptions{})
		wantVal, errVal := valPlan.fastTrack(e, RunOptions{})
		wantSound, errSound := soundPlan.fastTrack(e, RunOptions{})
		if err != nil || errVal != nil || errSound != nil {
			if fmt.Sprint(err) != fmt.Sprint(errVal) || fmt.Sprint(err) != fmt.Sprint(errSound) {
				t.Errorf("%s exec %d: one-pass error %v, separate runs %v / %v", name, i, err, errVal, errSound)
			}
			continue
		}
		if !sameReport(val, wantVal) {
			t.Errorf("%s exec %d: validation detector diverged: races %v checks %d, want %v checks %d",
				name, i, val.Races, val.FTChecks, wantVal.Races, wantVal.FTChecks)
		}
		if !sameReport(sound, wantSound) {
			t.Errorf("%s exec %d: sound detector diverged: races %v checks %d, want %v checks %d",
				name, i, sound.Races, sound.FTChecks, wantSound.Races, wantSound.FTChecks)
		}
	}
}

// TestValidateMatchesReference pins the one-pass validation to the
// two-pass reference: the same validated lock set on every program of
// the corpus, and per execution the same reports from each detector
// under the first round's plan (every proposed site elided).
func TestValidateMatchesReference(t *testing.T) {
	for _, c := range validateCorpus(t) {
		pr, err := Profile(c.prog, c.profile, 8)
		if err != nil {
			t.Fatalf("%s: profile: %v", c.name, err)
		}
		o, err := NewOptFT(c.prog, pr.DB.Clone())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref, refErr := refValidate(o, c.execs, RunOptions{})
		if err := o.ValidateCustomSync(c.execs, RunOptions{}); fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: validation error %v, reference %v", c.name, err, refErr)
		}
		if refErr == nil && !o.DB.ElidableLocks.Equal(ref) {
			t.Errorf("%s: validated %v, reference %v", c.name, o.DB.ElidableLocks, ref)
		}
		val := validationPlan(o.Pred, o.Pred.ElidableSyncs)
		if dualPlan(o.Sound.plan, val) != o.Sound.plan {
			t.Errorf("%s: the sound plan does not cover the validation plan", c.name)
		}
		checkOnePass(t, c.name, o.Sound.plan, val, c.execs)
	}
}

// TestValidateUnionImage runs the one-pass validation on a sound plan
// that misses some of the validation plan's sites, so the run needs an
// image of both plans' masks; each detector must still see exactly its
// own plan's events.
func TestValidateUnionImage(t *testing.T) {
	prog := lang.MustCompile(`
		global c = 0;
		global g = 0;
		global m = 0;
		func w(n) {
			var i = 0;
			while (i < n) {
				lock(&m);
				c = c + 1;
				unlock(&m);
				g = g + i;
				i = i + 1;
			}
		}
		func main() {
			var t1 = spawn w(input(0));
			var t2 = spawn w(input(0));
			join(t1);
			join(t2);
			print(c + g);
		}
	`)
	pr := mustProfile(t, prog, gen(10), 10)
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	// The sound plan keeps every other memory site and no lock site.
	sound := o.Sound.plan.masks
	mem := slices.Clone(sound.Mem)
	for id := range mem {
		mem[id] = mem[id] && id%2 == 0
	}
	trimmed := compiledCode(prog, raceMasks(prog, mem, make([]bool, len(prog.Instrs))), compileOpts(nil, o.static), nil)
	val := validationPlan(o.Pred, o.DB.ElidableLocks)
	if dualPlan(trimmed, val) == trimmed {
		t.Fatal("the trimmed sound plan still covers the validation plan")
	}
	execs := []Execution{{Inputs: []int64{10}, Seed: 1}, {Inputs: []int64{10}, Seed: 2}, {Inputs: []int64{3}, Seed: 3}}
	checkOnePass(t, "union", trimmed, val, execs)
}

// profileCorpus returns every workload program and 25 seeds each of the
// progen default and dispatch families, with their profiling
// executions.
func profileCorpus(t *testing.T) []validateCase {
	t.Helper()
	var out []validateCase
	for _, w := range workloads.All() {
		out = append(out, validateCase{name: w.Name, prog: w.Prog(), profile: func(run int) Execution {
			return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
		}})
	}
	for _, c := range validateCorpus(t) {
		if workloads.ByName(c.name) == nil {
			out = append(out, c)
		}
	}
	return out
}

// firstExecs returns gen's first n executions.
func firstExecs(gen func(int) Execution, n int) []Execution {
	out := make([]Execution, n)
	for i := range out {
		out[i] = gen(i)
	}
	return out
}

// TestProfileValidatesCustomSync: profiling ends with custom-sync
// validation, so ProfileWith's ElidableLocks is the set an explicit
// ValidateCustomSync on its first (at most four) executions keeps, for
// a detector built on the unvalidated database.
func TestProfileValidatesCustomSync(t *testing.T) {
	elided := 0
	for _, c := range profileCorpus(t) {
		pr, err := ProfileWith(c.prog, c.profile, ProfileOptions{MaxRuns: 32, Workers: 1})
		if err != nil {
			t.Fatalf("%s: profile: %v", c.name, err)
		}
		db := pr.DB.Clone()
		db.ElidableLocks.Clear()
		o, err := NewOptFT(c.prog, db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := o.ValidateCustomSync(firstExecs(c.profile, min(pr.Runs, 4)), RunOptions{}); err != nil {
			t.Fatalf("%s: validate: %v", c.name, err)
		}
		if !pr.DB.ElidableLocks.Equal(o.DB.ElidableLocks) {
			t.Errorf("%s: profiling validated %v, explicit validation %v", c.name, pr.DB.ElidableLocks, o.DB.ElidableLocks)
		}
		if !pr.DB.ElidableLocks.IsEmpty() {
			elided++
		}
	}
	if elided == 0 {
		t.Fatal("no program validated an elidable lock: the corpus checks nothing")
	}
}

// TestValidationSharesProfilingSolves: with one shared cache,
// ProfileWith has already made every static solve the detector of its
// database needs and memoized the validation: building the detector
// misses at most the speculative image, the one artifact validation
// does not build, and validating again on the same executions is one
// cache hit. (A
// program with no lock instruction validates nothing; see
// TestProfileWithoutLocksRunsNoStaticAnalysis.)
func TestValidationSharesProfilingSolves(t *testing.T) {
	for _, w := range append(workloads.Races(), workloads.ByName("dispatch-mono"), workloads.ByName("dispatch-poly")) {
		prog := w.Prog()
		if !hasLock(prog) {
			continue
		}
		profile := func(run int) Execution { return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)} }
		cache := artifacts.New("")
		pr, err := ProfileWith(prog, profile, ProfileOptions{MaxRuns: 32, Workers: 1, Cache: cache})
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		for _, kind := range []string{artifacts.KindPointsTo, artifacts.KindMHP, artifacts.KindStaticRace} {
			for _, db := range []*invariants.DB{pr.DB, nil} {
				if _, ok := cache.Peek(artifacts.RaceKey(kind, prog, db)); !ok {
					t.Errorf("%s: profiling left no %s artifact for database %v", w.Name, kind, db != nil)
				}
			}
		}
		before := cache.Stats()
		o, err := NewOptFTCached(prog, pr.DB, cache)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		built := cache.Stats()
		if misses := built.Misses - before.Misses; misses > 1 {
			t.Errorf("%s: detector build missed %d artifacts, want at most 1 (the speculative image)", w.Name, misses)
		}
		if err := o.ValidateCustomSync(firstExecs(profile, min(pr.Runs, 4)), RunOptions{}); err != nil {
			t.Fatalf("%s: validate: %v", w.Name, err)
		}
		if st := cache.Stats(); st.Misses != built.Misses || st.Lookups() != built.Lookups()+1 {
			t.Errorf("%s: validation made %d lookups and %d misses, want one hit", w.Name, st.Lookups()-built.Lookups(), st.Misses-built.Misses)
		}
		if !o.DB.ElidableLocks.Equal(pr.DB.ElidableLocks) {
			t.Errorf("%s: validation kept %v, profiling %v", w.Name, o.DB.ElidableLocks, pr.DB.ElidableLocks)
		}
	}
}

// TestProfileWithoutLocksRunsNoStaticAnalysis: a program with no lock
// instruction has nothing to validate, so profiling looks up nothing
// in the cache but its own runs.
func TestProfileWithoutLocksRunsNoStaticAnalysis(t *testing.T) {
	for _, w := range workloads.All() {
		if hasLock(w.Prog()) {
			continue
		}
		cache := artifacts.New("")
		pr, err := ProfileWith(w.Prog(), func(run int) Execution {
			return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
		}, ProfileOptions{MaxRuns: 32, Workers: 1, Cache: cache})
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		if got := cache.Stats().Lookups(); got != uint64(pr.Runs) {
			t.Errorf("%s: %d cache lookups for %d profiling runs", w.Name, got, pr.Runs)
		}
	}
}

// TestValidationLeavesCallerDB: neither building OptFT nor validating
// its lock sites writes to the database the caller passed in; the
// detector runs under its own validated copy.
func TestValidationLeavesCallerDB(t *testing.T) {
	w := workloads.ByName("raytracer")
	profile := func(run int) Execution { return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)} }
	pr := mustProfile(t, w.Prog(), profile, 32)
	if pr.DB.ElidableLocks.IsEmpty() {
		t.Fatal("test needs a validated elidable lock")
	}
	db := pr.DB.Clone()
	db.ElidableLocks.Clear()
	want := db.Clone()
	o, err := NewOptFT(w.Prog(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(want) {
		t.Fatal("NewOptFT changed the caller's database")
	}
	if err := o.ValidateCustomSync(firstExecs(profile, 4), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !db.Equal(want) {
		t.Errorf("ValidateCustomSync changed the caller's database: elidable %v", db.ElidableLocks)
	}
	if !o.DB.ElidableLocks.Equal(pr.DB.ElidableLocks) {
		t.Errorf("detector elides %v, want %v", o.DB.ElidableLocks, pr.DB.ElidableLocks)
	}
}

// TestProfileValidationCanceled: a context canceled once profiling has
// converged, while validation replays the first executions, fails
// ProfileWith as canceled.
func TestProfileValidationCanceled(t *testing.T) {
	w := workloads.ByName("raytracer")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstRuns := 0
	pr, err := ProfileWith(w.Prog(), func(run int) Execution {
		if run == 0 {
			// The second request for run 0 is validation's.
			if firstRuns++; firstRuns == 2 {
				cancel()
			}
		}
		return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
	}, ProfileOptions{MaxRuns: 32, Workers: 1, Ctx: ctx})
	if firstRuns != 2 {
		t.Fatalf("run 0 requested %d times, want 2 (profiling, then validation)", firstRuns)
	}
	if !errors.Is(err, interp.ErrCanceled) {
		t.Fatalf("err = %v (db %v), want interp.ErrCanceled", err, pr)
	}
}
