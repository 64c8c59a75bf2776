package core

import (
	"fmt"
	"slices"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/workloads"
)

// profileCase is one program with its profiling executions.
type profileCase struct {
	name    string
	prog    *ir.Program
	profile func(run int) Execution
}

// profileCorpus returns every workload program and 25 seeds each of the
// progen default and dispatch families, with their profiling
// executions.
func profileCorpus(t *testing.T) []profileCase {
	t.Helper()
	var out []profileCase
	for _, w := range workloads.All() {
		out = append(out, profileCase{name: w.Name, prog: w.Prog(), profile: func(run int) Execution {
			return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
		}})
	}
	compile := func(name, src string, inputs []int64) {
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		out = append(out, profileCase{name: name, prog: prog, profile: gen(inputs...)})
	}
	for seed := uint64(1); seed <= 25; seed++ {
		compile(fmt.Sprintf("progen%d", seed), progen.Generate(seed, progen.DefaultConfig()), randomInputs(seed)[0])
		compile(fmt.Sprintf("dispatch%d", seed), progen.GenerateDispatch(seed, progen.DefaultDispatchConfig()), []int64{0, 9, 4})
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

// TestProfileProposesElidableLocks: profiling ends by setting
// ElidableLocks to the lock sites the predicated race analysis of its
// database proposes to elide, through ProfileWith and ProfileNWith
// alike; a program with no lock instruction elides none.
func TestProfileProposesElidableLocks(t *testing.T) {
	elided := 0
	for _, c := range profileCorpus(t) {
		pr, err := ProfileWith(c.prog, c.profile, ProfileOptions{MaxRuns: 32, Workers: 1})
		if err != nil {
			t.Fatalf("%s: profile: %v", c.name, err)
		}
		o, err := NewOptFT(c.prog, pr.DB)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !pr.DB.ElidableLocks.Equal(o.Pred.ElidableSyncs) {
			t.Errorf("%s: profiling elides %v, the predicated analysis proposes %v", c.name, pr.DB.ElidableLocks, o.Pred.ElidableSyncs)
		}
		if !hasLock(c.prog) && !pr.DB.ElidableLocks.IsEmpty() {
			t.Errorf("%s: lock-free program elides %v", c.name, pr.DB.ElidableLocks)
		}
		db, err := ProfileNWith(c.prog, firstExecs(c.profile, pr.Runs), 1, nil)
		if err != nil {
			t.Fatalf("%s: ProfileNWith: %v", c.name, err)
		}
		if !db.Equal(pr.DB) {
			t.Errorf("%s: ProfileNWith over the same runs differs from ProfileWith", c.name)
		}
		if !pr.DB.ElidableLocks.IsEmpty() {
			elided++
		}
	}
	if elided == 0 {
		t.Fatal("no program proposed an elidable lock: the corpus checks nothing")
	}
}

// TestValidationSharesProfilingSolves: with one shared cache,
// ProfileWith has already made every static solve the detector of its
// database needs, and none of the sound analysis, which the detector
// builds only when a run falls through to it. Building the detector
// misses at most the speculative image, and the deprecated
// ValidateCustomSync looks nothing up. (A program with no lock
// instruction solves nothing; see
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
		pred, sound := raceKeys(prog, pr.DB), raceKeys(prog, nil)
		for kind, key := range pred {
			if _, ok := cache.Peek(key); !ok {
				t.Errorf("%s: profiling left no predicated %s artifact", w.Name, kind)
			}
			if _, ok := cache.Peek(sound[kind]); ok {
				t.Errorf("%s: profiling solved the sound %s", w.Name, kind)
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
		if st := cache.Stats(); st.Lookups() != built.Lookups() {
			t.Errorf("%s: ValidateCustomSync made %d cache lookups, want none", w.Name, st.Lookups()-built.Lookups())
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

// TestValidationLeavesCallerDB: neither building OptFT nor the
// deprecated ValidateCustomSync writes to the database the caller
// passed in, and the detector elides exactly its ElidableLocks.
func TestValidationLeavesCallerDB(t *testing.T) {
	w := workloads.ByName("raytracer")
	profile := func(run int) Execution { return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)} }
	pr := mustProfile(t, w.Prog(), profile, 32)
	if pr.DB.ElidableLocks.IsEmpty() {
		t.Fatal("test needs a proposed elidable lock")
	}
	db := pr.DB.Clone()
	want := db.Clone()
	o, err := NewOptFT(w.Prog(), db)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.ValidateCustomSync(firstExecs(profile, 4), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !db.Equal(want) {
		t.Errorf("the detector changed the caller's database: elidable %v", db.ElidableLocks)
	}
	if _, sync := o.Pred.Masks(want); !slices.Equal(o.sync, sync) {
		t.Errorf("detector's lock sites differ from the ones eliding %v", want.ElidableLocks)
	}
}

// raceKeys returns the cache keys of the race pipeline's solves of
// (prog, db) by artifact kind.
func raceKeys(prog *ir.Program, db *invariants.DB) map[string]string {
	k := StaticKeysOf(prog, db)
	return map[string]string{artifacts.KindPointsTo: k.PointsTo, artifacts.KindMHP: k.MHP, artifacts.KindStaticRace: k.StaticRace}
}
