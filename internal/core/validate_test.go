package core

import (
	"fmt"
	"slices"
	"testing"

	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/workloads"
)

// refValidate is the two-pass custom-sync validation loop that
// ValidateCustomSync replaces: every round runs each execution under
// the validation plan, and the first round to reach an execution runs
// it a second time under the sound plan. ValidateCustomSync must
// validate the same lock set.
func refValidate(o *OptFT, execs []Execution, opts RunOptions) error {
	tentative := o.Pred.ElidableSyncs.Clone()
	if tentative.IsEmpty() {
		o.setElidable(tentative)
		return nil
	}
	soundReps := make([]*RaceReport, len(execs))
	for {
		o.setElidable(tentative)
		bad := false
		for i, e := range execs {
			optRep, err := o.val.fastTrack(e, opts)
			if err != nil {
				return err
			}
			if soundReps[i] == nil {
				if soundReps[i], err = o.Sound.Run(e, opts); err != nil {
					return err
				}
			}
			if !slices.Equal(optRep.Races, soundReps[i].Races) {
				bad = true
				break
			}
		}
		if !bad || tentative.IsEmpty() {
			return nil
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
func checkOnePass(t *testing.T, name string, o *OptFT, execs []Execution) {
	t.Helper()
	both := o.dualPlan()
	for i, e := range execs {
		val, sound, err := o.validateWithSound(both, e, RunOptions{})
		wantVal, errVal := o.val.fastTrack(e, RunOptions{})
		wantSound, errSound := o.Sound.Run(e, RunOptions{})
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
		ref, err := NewOptFT(c.prog, pr.DB.Clone())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		refErr := refValidate(ref, c.execs, RunOptions{})
		o, err := NewOptFT(c.prog, pr.DB.Clone())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := o.ValidateCustomSync(c.execs, RunOptions{}); fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: validation error %v, reference %v", c.name, err, refErr)
		}
		if got, want := o.DB.ElidableLocks.Slice(), ref.DB.ElidableLocks.Slice(); !slices.Equal(got, want) {
			t.Errorf("%s: validated %v, reference %v", c.name, got, want)
		}
		o.setElidable(o.Pred.ElidableSyncs)
		if o.dualPlan() != o.Sound.plan {
			t.Errorf("%s: the sound plan does not cover the validation plan", c.name)
		}
		checkOnePass(t, c.name, o, c.execs)
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
	o.Sound.plan = compiledCode(prog, raceMasks(prog, mem, make([]bool, len(prog.Instrs))), compileOpts(nil, o.static), nil)
	if o.dualPlan() == o.Sound.plan {
		t.Fatal("the trimmed sound plan still covers the validation plan")
	}
	execs := []Execution{{Inputs: []int64{10}, Seed: 1}, {Inputs: []int64{10}, Seed: 2}, {Inputs: []int64{3}, Seed: 3}}
	checkOnePass(t, "union", o, execs)
}
