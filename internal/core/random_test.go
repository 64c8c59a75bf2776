package core

import (
	"testing"

	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
)

// The paper's headline guarantee is universally quantified: for every
// program and every analyzed execution, optimistic hybrid analysis
// produces exactly the results of the unoptimized dynamic analysis —
// whether speculation succeeds or rolls back. These tests check it on
// randomly generated MiniLang programs (which freely contain real data
// races, unprofiled paths, indirect calls, and thread structures the
// static analyses get conservative about).

// randomInputs returns a few distinct input vectors per seed.
func randomInputs(seed uint64) [][]int64 {
	mix := func(k uint64) int64 {
		z := (seed*31 + k + 1) * 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return int64((z ^ (z >> 27)) % 100)
	}
	out := make([][]int64, 3)
	for i := range out {
		in := make([]int64, 8)
		for j := range in {
			in[j] = mix(uint64(i*8 + j))
		}
		out[i] = in
	}
	return out
}

func TestRandomProgramsOptFTEqualsFastTrack(t *testing.T) {
	const programs = 25
	for seed := uint64(0); seed < programs; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs := randomInputs(seed)

		// Profile on the first input vector only: testing runs with the
		// others will regularly violate invariants — the rollback path
		// is exercised for real.
		pr, err := Profile(prog, func(run int) Execution {
			return Execution{Inputs: inputs[0], Seed: uint64(run + 1)}
		}, 8)
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		o, err := NewOptFT(prog, pr.DB)
		if err != nil {
			t.Fatalf("seed %d: static: %v", seed, err)
		}

		rollbacks := 0
		for _, in := range inputs {
			for _, s := range []uint64{11, 12} {
				e := Execution{Inputs: in, Seed: s}
				ft, err := RunFastTrack(prog, e, RunOptions{})
				if err != nil {
					t.Fatalf("seed %d: fasttrack: %v", seed, err)
				}
				hy, err := o.sound(e, RunOptions{})
				if err != nil {
					t.Fatalf("seed %d: hybrid: %v", seed, err)
				}
				opt, err := o.Run(e, RunOptions{})
				if err != nil {
					t.Fatalf("seed %d: optimistic: %v", seed, err)
				}
				if opt.RolledBack {
					rollbacks++
				}
				if !sameReports(ft, hy) {
					t.Fatalf("seed %d: hybrid diverged from FastTrack:\n%v\n%v\nprogram:\n%s",
						seed, hy.Races, ft.Races, src)
				}
				if !sameReports(ft, opt) {
					t.Fatalf("seed %d: OptFT diverged from FastTrack (rolledback=%v, %q):\n%v\n%v\nprogram:\n%s",
						seed, opt.RolledBack, opt.Violation, opt.Races, ft.Races, src)
				}
			}
		}
		_ = rollbacks // any value is fine; divergence is the failure mode
	}
}

func TestRandomProgramsOptSliceEqualsFullGiri(t *testing.T) {
	const programs = 20
	for seed := uint64(100); seed < 100+programs; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs := randomInputs(seed)
		var criterion *ir.Instr
		for _, in := range prog.Instrs {
			if in.Op == ir.OpPrint {
				criterion = in
			}
		}
		pr, err := Profile(prog, func(run int) Execution {
			return Execution{Inputs: inputs[0], Seed: uint64(run + 1)}
		}, 8)
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		opt, err := NewOptSlice(prog, pr.DB, criterion, 512)
		if err != nil {
			t.Fatalf("seed %d: static: %v", seed, err)
		}
		for _, in := range inputs {
			e := Execution{Inputs: in, Seed: 21}
			full, err := RunFullGiri(prog, criterion, e, RunOptions{}, 0)
			if err != nil {
				t.Fatalf("seed %d: giri: %v", seed, err)
			}
			hy, err := opt.sound(e, RunOptions{})
			if err != nil {
				t.Fatalf("seed %d: hybrid: %v", seed, err)
			}
			orep, err := opt.Run(e, RunOptions{})
			if err != nil {
				t.Fatalf("seed %d: optimistic: %v", seed, err)
			}
			if !full.Slice.Equal(hy.Slice) {
				t.Fatalf("seed %d: hybrid slice diverged:\nfull %v\nhyb  %v\nprogram:\n%s",
					seed, full.Slice.Instrs, hy.Slice.Instrs, src)
			}
			if !full.Slice.Equal(orep.Slice) {
				t.Fatalf("seed %d: optimistic slice diverged (rolledback=%v, %q):\nfull %v\nopt  %v\nprogram:\n%s",
					seed, orep.RolledBack, orep.Violation, full.Slice.Instrs, orep.Slice.Instrs, src)
			}
		}
	}
}

// Predicated racy-pair sets must be subsets of the sound ones when the
// profiled executions cover the analyzed behaviour.
func TestRandomProgramsPredicatedSubset(t *testing.T) {
	for seed := uint64(200); seed < 212; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pr, err := Profile(prog, func(run int) Execution {
			return Execution{Inputs: randomInputs(seed)[run%3], Seed: uint64(run + 1)}
		}, 12)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		o, err := NewOptFT(prog, pr.DB)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sound, err := o.gens.sound.get()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !o.Pred.Racy.SubsetOf(sound.Static.Racy) {
			t.Fatalf("seed %d: predicated racy set not a subset of sound\nprogram:\n%s", seed, src)
		}
	}
}
