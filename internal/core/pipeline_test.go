package core

import (
	"context"
	"errors"
	"testing"

	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
)

// outcomeView is the part of a report the speculative pipeline owns.
type outcomeView struct {
	stats        interp.Stats
	checkEvents  uint64
	rolledBack   bool
	violation    Violation
	rolledBackTo RollbackTarget
	refuted      []Violation
	ic           interp.ICStats
}

func viewOf(o *Outcome) outcomeView {
	return outcomeView{o.Stats, o.CheckEvents, o.RolledBack, o.Violation, o.RolledBackTo, o.Refuted, o.IC}
}

// pipelineCase is one optimistic client driven through a violating
// execution: build returns the speculative detector for a database of
// the program and that detector's sound rollback target.
type pipelineCase struct {
	name     string
	src      string
	profile  []int64
	violate  Execution
	wantKind ViolationKind
	build    func(t *testing.T, prog *ir.Program, db *invariants.DB) (run, sound func(Execution, RunOptions) (outcomeView, error))
}

func raceView(rep *RaceReport, err error) (outcomeView, error) {
	if err != nil {
		return outcomeView{}, err
	}
	return viewOf(rep.Base()), nil
}

func sliceView(rep *SliceReport, err error) (outcomeView, error) {
	if err != nil {
		return outcomeView{}, err
	}
	return viewOf(rep.Base()), nil
}

func nullView(rep *NullReport, err error) (outcomeView, error) {
	if err != nil {
		return outcomeView{}, err
	}
	return viewOf(rep.Base()), nil
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
		build: func(t *testing.T, prog *ir.Program, db *invariants.DB) (func(Execution, RunOptions) (outcomeView, error), func(Execution, RunOptions) (outcomeView, error)) {
			o, err := NewOptFT(prog, db)
			if err != nil {
				t.Fatal(err)
			}
			return func(e Execution, opts RunOptions) (outcomeView, error) { return raceView(o.Run(e, opts)) },
				func(e Execution, opts RunOptions) (outcomeView, error) { return raceView(o.sound(e, opts)) }
		},
	},
	{
		name: "slice", src: sliceLUCSrc, profile: []int64{3, 9},
		violate: Execution{Inputs: []int64{99, 9}, Seed: 1}, wantKind: ViolationUnreachableBlock,
		build: func(t *testing.T, prog *ir.Program, db *invariants.DB) (func(Execution, RunOptions) (outcomeView, error), func(Execution, RunOptions) (outcomeView, error)) {
			o, err := NewOptSlice(prog, db, lastPrintOf(t, prog), 4096)
			if err != nil {
				t.Fatal(err)
			}
			return func(e Execution, opts RunOptions) (outcomeView, error) { return sliceView(o.Run(e, opts)) },
				func(e Execution, opts RunOptions) (outcomeView, error) { return sliceView(o.sound(e, opts)) }
		},
	},
	{
		name: "nullcheck", src: pathProg, profile: []int64{5},
		violate: Execution{Inputs: []int64{500}, Seed: 3}, wantKind: ViolationUnreachableBlock,
		build: func(t *testing.T, prog *ir.Program, db *invariants.DB) (func(Execution, RunOptions) (outcomeView, error), func(Execution, RunOptions) (outcomeView, error)) {
			o, err := NewOptNull(prog, db, StaticConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			return func(e Execution, opts RunOptions) (outcomeView, error) { return nullView(o.Run(e, opts)) },
				func(e Execution, opts RunOptions) (outcomeView, error) { return nullView(o.sound(e, opts)) }
		},
	},
}

func icTotal(ic interp.ICStats) uint64 {
	return ic.Hits + ic.Misses + ic.Deopts + ic.Fused + ic.FastPath.Hits + ic.FastPath.Slow
}

// TestSpeculativePipelineContract pins the rollback path every
// optimistic client shares: a violating execution rolls back with the
// first violation raised and re-executes under the generation the
// refuted facts' kind rules refine, whose clean run supplies the report;
// the report charges the aborted speculative work on top of that
// re-execution, CheckEvents sum every speculative checker's, and a
// canceled context fails without rolling back. That the adaptive
// manager observes each final report once is pinned in internal/adapt
// (TestRunObservesFinalOutcome).
func TestSpeculativePipelineContract(t *testing.T) {
	for _, c := range pipelineCases {
		t.Run(c.name, func(t *testing.T) {
			prog := lang.MustCompile(c.src)
			pr := mustProfile(t, prog, gen(c.profile...), 10)
			run, _ := c.build(t, prog, pr.DB)

			rep, err := run(c.violate, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.rolledBack || rep.violation.Kind != c.wantKind || rep.rolledBackTo != RollbackRefined {
				t.Fatalf("rolledBack=%v violation=%v to %q, want a %s rollback to a refined generation", rep.rolledBack, rep.violation, rep.rolledBackTo, c.wantKind)
			}
			if rep.refuted[0].FactKey() != rep.violation.FactKey() {
				t.Fatalf("refuted %v does not start with the violation %v", rep.refuted, rep.violation)
			}
			db := pr.DB.Clone()
			for _, v := range rep.refuted {
				if !v.Refine(prog, db) {
					t.Fatalf("%v refines nothing", v)
				}
			}
			refined, sound := c.build(t, prog, db)
			ref, err := refined(c.violate, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if ref.rolledBack {
				t.Fatalf("the refined generation rolls back too: %v", ref.violation)
			}
			if rep.stats.Steps <= ref.stats.Steps {
				t.Errorf("Stats.Steps %d not above the refined run's %d: aborted work uncounted", rep.stats.Steps, ref.stats.Steps)
			}
			if icTotal(rep.ic) <= icTotal(ref.ic) {
				t.Errorf("IC %+v not above the refined run's %+v: aborted work uncounted", rep.ic, ref.ic)
			}
			if rep.checkEvents <= ref.checkEvents {
				t.Errorf("CheckEvents = %d, not above the refined run's %d: the aborted checker's events uncounted", rep.checkEvents, ref.checkEvents)
			}
			if s, err := sound(c.violate, RunOptions{}); err != nil || s.checkEvents != 0 {
				t.Errorf("sound run: %d check events, err %v; want none", s.checkEvents, err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := run(c.violate, RunOptions{Ctx: ctx}); !errors.Is(err, interp.ErrCanceled) {
				t.Fatalf("canceled run: err = %v, want interp.ErrCanceled", err)
			}
		})
	}
}
