package core

import (
	"reflect"
	"testing"

	"oha/internal/interp"
	"oha/internal/workloads"
)

// Every run path's plan carries the masks its image was compiled from:
// the tree-walker, which reads the masks, and the compiled engine,
// which reads the image, must produce the same report on each of the
// eleven paths. IC counts are the compiled engine's own.
func TestRunPathsAgreeAcrossEngines(t *testing.T) {
	for _, name := range []string{"pmd", "perl", "null-flaky"} {
		w := workloads.ByName(name)
		prog := w.Prog()
		pr := mustProfile(t, prog, func(run int) Execution {
			return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
		}, 32)
		oft, err := NewOptFT(prog, pr.DB.Clone())
		if err != nil {
			t.Fatal(err)
		}
		_, crit, err := SliceCriterion(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		osl, err := NewOptSlice(prog, pr.DB.Clone(), crit, 4096)
		if err != nil {
			t.Fatal(err)
		}
		onu, err := NewOptNull(prog, pr.DB.Clone(), StaticConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		paths := []struct {
			name string
			run  func(Execution, RunOptions) (any, error)
		}{
			{"RunPlain", func(e Execution, o RunOptions) (any, error) { return RunPlain(prog, e, o) }},
			{"RunFastTrack", func(e Execution, o RunOptions) (any, error) { return RunFastTrack(prog, e, o) }},
			{"RunDJIT", func(e Execution, o RunOptions) (any, error) { return RunDJIT(prog, e, o) }},
			{"HybridFT", func(e Execution, o RunOptions) (any, error) { return oft.sound(e, o) }},
			{"OptFT", func(e Execution, o RunOptions) (any, error) { return oft.Run(e, o) }},
			{"RunFullGiri", func(e Execution, o RunOptions) (any, error) { return RunFullGiri(prog, osl.Criterion, e, o, 0) }},
			{"HybridSlicer", func(e Execution, o RunOptions) (any, error) { return osl.sound(e, o) }},
			{"OptSlice", func(e Execution, o RunOptions) (any, error) { return osl.Run(e, o) }},
			{"RunNullAlways", func(e Execution, o RunOptions) (any, error) { return RunNullAlways(prog, e, o) }},
			{"HybridNull", func(e Execution, o RunOptions) (any, error) { return onu.sound(e, o) }},
			{"OptNull", func(e Execution, o RunOptions) (any, error) { return onu.Run(e, o) }},
		}
		for i := 0; i < 3; i++ {
			e := Execution{Inputs: w.GenInput(1000 + i), Seed: uint64(2000 + i)}
			for _, p := range paths {
				// A path without null checks traps on null-flaky's nil
				// loads; the trap must match too.
				var reps [2]any
				for k, engine := range []interp.EngineKind{interp.EngineCompiled, interp.EngineTree} {
					rep, err := p.run(e, RunOptions{Engine: engine})
					if err != nil {
						reps[k] = err.Error()
						continue
					}
					reps[k] = withoutIC(rep)
				}
				if !reflect.DeepEqual(reps[0], reps[1]) {
					t.Errorf("%s/%d %s: engines differ:\ncompiled %+v\n    tree %+v", name, i, p.name, reps[0], reps[1])
				}
			}
		}
	}
}

// withoutIC returns rep with its compiled-engine counters cleared.
func withoutIC(rep any) any {
	switch r := rep.(type) {
	case *interp.Result:
		r.IC = interp.ICStats{}
	case Report:
		r.Base().IC = interp.ICStats{}
	}
	return rep
}
