package core

import (
	"context"
	"errors"
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
)

// outcomeView is the part of a report the speculative pipeline owns.
type outcomeView struct {
	stats       interp.Stats
	checkEvents uint64
	rolledBack  bool
	violation   Violation
	ic          interp.ICStats
}

// pipelineCase is one optimistic client driven through a violating
// execution: run is the speculative detector, sound its rollback
// target, both on the same program and database.
type pipelineCase struct {
	name     string
	src      string
	profile  []int64
	violate  Execution
	wantKind ViolationKind
	build    func(t *testing.T, prog *ir.Program, pr *ProfileResult) (run, sound func(Execution, RunOptions) (outcomeView, error))
}

func raceView(rep *RaceReport, err error) (outcomeView, error) {
	if err != nil {
		return outcomeView{}, err
	}
	return outcomeView{rep.Stats, rep.CheckEvents, rep.RolledBack, rep.Violation, rep.IC}, nil
}

func sliceView(rep *SliceReport, err error) (outcomeView, error) {
	if err != nil {
		return outcomeView{}, err
	}
	return outcomeView{rep.Stats, rep.CheckEvents, rep.RolledBack, rep.Violation, rep.IC}, nil
}

func nullView(rep *NullReport, err error) (outcomeView, error) {
	if err != nil {
		return outcomeView{}, err
	}
	return outcomeView{rep.Stats, rep.CheckEvents, rep.RolledBack, rep.Violation, rep.IC}, nil
}

// sliceLUCSrc takes an input-guarded branch the profile never enters.
const sliceLUCSrc = `
	global g = 0;
	func main() {
		if (input(0) > 50) {
			g = input(1);    // unlikely path
		} else {
			g = 1;
		}
		print(g);
	}
`

var pipelineCases = []pipelineCase{
	{
		name: "race", src: pathProg, profile: []int64{5},
		violate: Execution{Inputs: []int64{500}, Seed: 3}, wantKind: ViolationUnreachableBlock,
		build: func(t *testing.T, prog *ir.Program, pr *ProfileResult) (func(Execution, RunOptions) (outcomeView, error), func(Execution, RunOptions) (outcomeView, error)) {
			o, err := NewOptFT(prog, pr.DB)
			if err != nil {
				t.Fatal(err)
			}
			return func(e Execution, opts RunOptions) (outcomeView, error) { return raceView(o.Run(e, opts)) },
				func(e Execution, opts RunOptions) (outcomeView, error) { return raceView(o.Sound.Run(e, opts)) }
		},
	},
	{
		name: "slice", src: sliceLUCSrc, profile: []int64{3, 9},
		violate: Execution{Inputs: []int64{99, 9}, Seed: 1}, wantKind: ViolationUnreachableBlock,
		build: func(t *testing.T, prog *ir.Program, pr *ProfileResult) (func(Execution, RunOptions) (outcomeView, error), func(Execution, RunOptions) (outcomeView, error)) {
			o, err := NewOptSlice(prog, pr.DB, lastPrintOf(t, prog), 4096)
			if err != nil {
				t.Fatal(err)
			}
			return func(e Execution, opts RunOptions) (outcomeView, error) { return sliceView(o.Run(e, opts)) },
				func(e Execution, opts RunOptions) (outcomeView, error) { return sliceView(o.Sound.Run(e, opts)) }
		},
	},
	{
		name: "nullcheck", src: pathProg, profile: []int64{5},
		violate: Execution{Inputs: []int64{500}, Seed: 3}, wantKind: ViolationUnreachableBlock,
		build: func(t *testing.T, prog *ir.Program, pr *ProfileResult) (func(Execution, RunOptions) (outcomeView, error), func(Execution, RunOptions) (outcomeView, error)) {
			o, err := NewOptNull(prog, pr.DB, StaticConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			return func(e Execution, opts RunOptions) (outcomeView, error) { return nullView(o.Run(e, opts)) },
				func(e Execution, opts RunOptions) (outcomeView, error) { return nullView(o.Sound.Run(e, opts)) }
		},
	},
}

func icTotal(ic interp.ICStats) uint64 {
	return ic.Hits + ic.Misses + ic.Deopts + ic.Fused + ic.FastPath.Hits + ic.FastPath.Slow
}

// TestSpeculativePipelineContract pins the rollback path every
// optimistic client shares: a violating execution rolls back with the
// first violation raised, the report charges the aborted speculative
// work on top of the sound re-execution, CheckEvents are the
// speculative checker's, and a canceled context fails without rolling
// back. That the adaptive manager observes each final report once is
// pinned in internal/adapt (TestRunObservesFinalOutcome).
func TestSpeculativePipelineContract(t *testing.T) {
	for _, c := range pipelineCases {
		t.Run(c.name, func(t *testing.T) {
			prog := lang.MustCompile(c.src)
			pr := mustProfile(t, prog, gen(c.profile...), 10)
			run, sound := c.build(t, prog, pr)

			rep, err := run(c.violate, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.rolledBack || rep.violation.Kind != c.wantKind {
				t.Fatalf("rolledBack=%v violation=%v, want a %s rollback", rep.rolledBack, rep.violation, c.wantKind)
			}
			ref, err := sound(c.violate, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.stats.Steps <= ref.stats.Steps {
				t.Errorf("Stats.Steps %d not above the sound run's %d: aborted work uncounted", rep.stats.Steps, ref.stats.Steps)
			}
			if icTotal(rep.ic) <= icTotal(ref.ic) {
				t.Errorf("IC %+v not above the sound run's %+v: aborted work uncounted", rep.ic, ref.ic)
			}
			if ref.checkEvents != 0 || rep.checkEvents == 0 {
				t.Errorf("CheckEvents = %d (sound run %d), want the speculative checker's count", rep.checkEvents, ref.checkEvents)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := run(c.violate, RunOptions{Ctx: ctx}); !errors.Is(err, interp.ErrCanceled) {
				t.Fatalf("canceled run: err = %v, want interp.ErrCanceled", err)
			}
		})
	}
}
