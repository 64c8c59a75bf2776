package progen

import (
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/sched"
	"oha/internal/vc"
)

// nilCounter counts NilDeref events.
type nilCounter struct {
	interp.NopTracer
	n int
}

func (c *nilCounter) NilDeref(vc.TID, *ir.Instr) { c.n++ }

func TestGeneratedProgramsCompileAndRun(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		src := Generate(seed, DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		for s := uint64(1); s <= 3; s++ {
			res, err := interp.Run(interp.Config{
				Prog:     prog,
				Inputs:   []int64{3, 1, 4, 1, 5, 9, 2, 6},
				Choose:   sched.NewSeeded(s),
				MaxSteps: 2_000_000,
			})
			if err != nil {
				t.Fatalf("seed %d/%d: run: %v\n%s", seed, s, err, src)
			}
			if len(res.Output) == 0 {
				t.Fatalf("seed %d: no output", seed)
			}
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		if Generate(seed, DefaultConfig()) != Generate(seed, DefaultConfig()) {
			t.Fatalf("seed %d: nondeterministic generation", seed)
		}
	}
	if Generate(1, DefaultConfig()) == Generate(2, DefaultConfig()) {
		t.Error("different seeds produced identical programs")
	}
}

func TestGeneratedProgramsAreDiverse(t *testing.T) {
	var withThreads, withLocks, withIndirect int
	for seed := uint64(0); seed < 40; seed++ {
		prog := lang.MustCompile(Generate(seed, DefaultConfig()))
		spawns, locks, indirect := 0, 0, 0
		for _, in := range prog.Instrs {
			switch {
			case in.Op.String() == "spawn":
				spawns++
			case in.Op.String() == "lock":
				locks++
			case in.IsIndirect():
				indirect++
			}
		}
		if spawns > 0 {
			withThreads++
		}
		if locks > 0 {
			withLocks++
		}
		if indirect > 0 {
			withIndirect++
		}
	}
	if withThreads < 30 {
		t.Errorf("only %d/40 programs spawn threads", withThreads)
	}
	if withLocks < 15 {
		t.Errorf("only %d/40 programs use locks", withLocks)
	}
	if withIndirect < 10 {
		t.Errorf("only %d/40 programs use indirect calls", withIndirect)
	}
}

// TestNullableProgramsCompileAndRun: every generated pointer program
// compiles, and runs to completion under an always-check null mask
// (nil derefs recover) across several inputs and seeds. Some inputs
// must actually hit a nil deref — otherwise the family exercises
// nothing.
func TestNullableProgramsCompileAndRun(t *testing.T) {
	inputVectors := [][]int64{
		{50, 60, 70, 3, 5},        // benign: guards keep pointers set
		{950, 980, 990, 6, 2},     // nil branch taken, repair taken
		{2000, 1500, 1800, 7, 1},  // nil branch taken, repair skipped
		{500, 2000, 100, 4, 9, 1}, // mixed
	}
	sawNil := false
	for seed := uint64(0); seed < 40; seed++ {
		src := GenerateNullable(seed, DefaultNullableConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		mask := make([]bool, len(prog.Instrs))
		for _, in := range prog.Instrs {
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				mask[in.ID] = true
			}
		}
		for vi, inputs := range inputVectors {
			nils := &nilCounter{}
			res, err := interp.Run(interp.Config{
				Prog:     prog,
				Inputs:   inputs,
				Tracer:   nils,
				Masks:    interp.Masks{Null: mask},
				Choose:   sched.NewSeeded(uint64(vi) + 1),
				MaxSteps: 2_000_000,
			})
			if err != nil {
				t.Fatalf("seed %d inputs %v: run: %v\n%s", seed, inputs, err, src)
			}
			if len(res.Output) == 0 {
				t.Fatalf("seed %d: no output", seed)
			}
			if res.Stats.NullChecks == 0 {
				t.Fatalf("seed %d: no null checks executed", seed)
			}
			if nils.n > 0 {
				sawNil = true
			}
		}
	}
	if !sawNil {
		t.Fatal("no generated program dereferenced nil on any input; family too tame")
	}
}

func TestNullableGenerationDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		if GenerateNullable(seed, DefaultNullableConfig()) != GenerateNullable(seed, DefaultNullableConfig()) {
			t.Fatalf("seed %d: nondeterministic generation", seed)
		}
	}
	if GenerateNullable(1, DefaultNullableConfig()) == GenerateNullable(2, DefaultNullableConfig()) {
		t.Error("different seeds produced identical programs")
	}
}
