package workloads

import (
	"testing"

	"oha/internal/core"
)

func profileNull(t *testing.T, w *Workload, runs int) *core.ProfileResult {
	t.Helper()
	pr, err := core.Profile(w.Prog(), func(run int) core.Execution {
		return core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
	}, runs)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestNullMonoDischarge is the headline speedup claim transplanted to
// the null client: on the monomorphic workload the optimistic static
// pass discharges at least half of the deref checks the always-check
// baseline executes, and the speculative run completes without
// rollback while executing strictly fewer residual checks.
func TestNullMonoDischarge(t *testing.T) {
	w := ByName("null-mono")
	pr := profileNull(t, w, 8)
	det, err := core.NewOptNull(w.Prog(), pr.DB, core.StaticConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := det.DischargeRatio(); r < 0.5 {
		t.Fatalf("discharge ratio = %.2f (%d of %d deref sites), want >= 0.5",
			r, det.ElidedChecks(), det.Pred.DerefSites)
	}

	e := core.Execution{Inputs: w.GenInput(40), Seed: 7}
	base, err := core.RunNullAlways(w.Prog(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := det.Run(e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBack {
		t.Fatalf("monomorphic workload rolled back: %s", rep.Violation)
	}
	if !core.SameNullVerdicts(base, rep) {
		t.Fatalf("verdicts diverged: %v vs %v", rep.NilSites, base.NilSites)
	}
	if base.CheckedDerefs == 0 || rep.CheckedDerefs >= base.CheckedDerefs {
		t.Fatalf("residual checks %d vs baseline %d: speculation saved nothing",
			rep.CheckedDerefs, base.CheckedDerefs)
	}
}

// TestNullFlakyRefutes: a testing-range input drives the flaky
// workload into a nil load at a fact site; the optimistic run rolls
// back and its sound re-execution matches the always-check baseline.
func TestNullFlakyRefutes(t *testing.T) {
	w := ByName("null-flaky")
	pr := profileNull(t, w, 16)
	det, err := core.NewOptNull(w.Prog(), pr.DB, core.StaticConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Find a testing-range run that actually dereferences nil.
	for run := 32; run < 64; run++ {
		e := core.Execution{Inputs: w.GenInput(run), Seed: uint64(run)}
		base, err := core.RunNullAlways(w.Prog(), e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(base.NilSites) == 0 {
			continue
		}
		rep, err := det.Run(e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.RolledBack || rep.Violation.Kind != core.ViolationNonNull {
			t.Fatalf("run %d: rolledback=%v violation=%s, want a non-null violation",
				run, rep.RolledBack, rep.Violation)
		}
		if !core.SameNullVerdicts(base, rep) {
			t.Fatalf("run %d: rollback verdicts %v != baseline %v", run, rep.NilSites, base.NilSites)
		}
		return
	}
	t.Fatal("no testing-range input dereferenced nil; workload is not flaky")
}
