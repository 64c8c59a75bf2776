package adapt

import (
	"fmt"
	"strings"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/interp"
	"oha/internal/lang"
)

// calleeProg dispatches through a function table with the slot index
// masked by input(0). Profiling with input 0 pins every dispatch to
// f0 (a monomorphic likely callee set) while still visiting every
// function body through the direct warm-up calls — so analyzing with
// input 3 escapes the callee set without touching an unvisited block,
// isolating the callee-set violation and the inline-cache deopt path.
const calleeProg = `
	global a = 0;
	global ftab[4];
	func f0(x) { return x + 1; }
	func f1(x) { return x + 2; }
	func f2(x) { return x + 3; }
	func main() {
		ftab[0] = f0;
		ftab[1] = f1;
		ftab[2] = f2;
		ftab[3] = f0;
		a = f0(1) + f1(2) + f2(3);
		var k = input(0);
		var i = 0;
		while (i < 30) {
			var h = ftab[(i & k) & 3];
			a = a + h(i);
			i = i + 1;
		}
		print(a);
	}
`

// fpRaceProg pairs the canonical likely-unreachable-code refinement
// trigger (the k>100 branch, unvisited when profiled with small
// inputs) with an unsynchronized counting loop: each worker hammers h
// in one epoch, so the race detector's same-epoch fast path gets dense
// hits both in the speculative generation-1 run and in the post-refine
// generation-2 image — proving the fast path survives recompiles and
// generation hot-swaps.
const fpRaceProg = `
	global g = 0;
	global h = 0;
	func w(k) {
		var i = 0;
		while (i < 40) {
			h = h + 1;
			i = i + 1;
		}
		if (k > 100) {
			g = g + 1;
		}
	}
	func main() {
		var t1 = spawn w(input(0));
		var t2 = spawn w(input(0));
		join(t1);
		join(t2);
		print(g + h);
	}
`

// runTwice runs a on e under m twice — the violating run, then the
// same execution under the generation it published — and describes
// each run's speculation. It also returns the second report and the
// two runs' summed dispatch counters.
func runTwice[D core.Detector[R], R core.Report](t *testing.T, m *Manager, a core.Analysis[D, R], e core.Execution, opts core.RunOptions) ([]string, R, interp.ICStats) {
	t.Helper()
	var runs []string
	var last R
	var ic interp.ICStats
	for i := 0; i < 2; i++ {
		res, err := Run(m, a, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := res.Report.Base()
		runs = append(runs, fmt.Sprintf("gen%d rolled=%v to=%s kind=%s site=%d callee=%d refuted=%d",
			res.Generation, out.RolledBack, out.RolledBackTo, out.Violation.Kind, out.Violation.Site, out.Violation.Callee, len(out.Refuted)))
		ic.Add(out.IC)
		last = res.Report
	}
	return runs, last, ic
}

// TestFastPathParityAcrossRefinement drives a refinement with the
// engine's inline analysis fast paths on and off, for both the race
// client (epoch fast path) and the slice client (Exec skip classes):
// the runs' speculation, refinement histories, and final verdicts must
// be identical — the fast paths may only change tracing speed, never
// results — across the rollback chain's refined generation and the
// hot-swap that deploys it.
func TestFastPathParityAcrossRefinement(t *testing.T) {
	type outcome struct {
		runs      []string
		dbDigests []string
		final     string
	}

	t.Run("race", func(t *testing.T) {
		prog := lang.MustCompile(fpRaceProg)
		pr := profileDB(t, prog, []int64{5}, 20)
		e := core.Execution{Inputs: []int64{500}, Seed: 3}
		run := func(noFast bool) (outcome, interp.ICStats) {
			t.Helper()
			m := New(prog, pr.DB, Options{
				Static: core.StaticConfig{Cache: artifacts.New(""), Workers: 1, NoFastPath: noFast},
			})
			var o outcome
			var last *core.RaceReport
			var ic interp.ICStats
			o.runs, last, ic = runTwice(t, m, core.Race(), e, core.RunOptions{})
			o.final = fmt.Sprint(last.Details, last.Stats, last.FTChecks, last.Output)
			for _, g := range m.Status().History {
				o.dbDigests = append(o.dbDigests, g.DBDigest)
			}
			return o, ic
		}
		on, onIC := run(false)
		off, offIC := run(true)
		if !strings.Contains(on.runs[0], "to=refined") || !strings.Contains(on.runs[1], "gen2 rolled=false") {
			t.Fatalf("expected a refined rollback, then a clean generation-2 run; got %v", on.runs)
		}
		if fmt.Sprint(on.runs) != fmt.Sprint(off.runs) {
			t.Errorf("runs diverged:\n on:  %v\n off: %v", on.runs, off.runs)
		}
		if fmt.Sprint(on.dbDigests) != fmt.Sprint(off.dbDigests) {
			t.Errorf("refinement history diverged:\n on:  %v\n off: %v", on.dbDigests, off.dbDigests)
		}
		if on.final != off.final {
			t.Errorf("final report diverged:\n on:  %s\n off: %s", on.final, off.final)
		}
		if onIC.FastPath.Hits == 0 {
			t.Errorf("fast-path-on adaptive race run recorded no hits: %+v", onIC.FastPath)
		}
		if offIC.FastPath != (interp.FastPathStats{}) {
			t.Errorf("NoFastPath adaptive race run recorded fast-path traffic %+v", offIC.FastPath)
		}
	})

	t.Run("slice", func(t *testing.T) {
		prog := lang.MustCompile(calleeProg)
		pr := profileDB(t, prog, []int64{0}, 20)
		criterion := lastPrint(prog)
		e := core.Execution{Inputs: []int64{3}, Seed: 2}
		run := func(noFast bool) (outcome, interp.ICStats) {
			t.Helper()
			m := New(prog, pr.DB, Options{
				Static: core.StaticConfig{Cache: artifacts.New(""), Workers: 1, NoFastPath: noFast},
			})
			var o outcome
			var last *core.SliceReport
			var ic interp.ICStats
			o.runs, last, ic = runTwice(t, m, core.Slice(criterion, 4096), e, core.RunOptions{})
			o.final = fmt.Sprint(last.Slice.Instrs, last.Stats, last.TraceNodes, last.Output)
			for _, g := range m.Status().History {
				o.dbDigests = append(o.dbDigests, g.DBDigest)
			}
			return o, ic
		}
		on, _ := run(false)
		off, offIC := run(true)
		if fmt.Sprint(on.runs) != fmt.Sprint(off.runs) {
			t.Errorf("runs diverged:\n on:  %v\n off: %v", on.runs, off.runs)
		}
		if fmt.Sprint(on.dbDigests) != fmt.Sprint(off.dbDigests) {
			t.Errorf("refinement history diverged:\n on:  %v\n off: %v", on.dbDigests, off.dbDigests)
		}
		if on.final != off.final {
			t.Errorf("final slice diverged:\n on:  %s\n off: %s", on.final, off.final)
		}
		if offIC.FastPath != (interp.FastPathStats{}) {
			t.Errorf("NoFastPath adaptive slice run recorded fast-path traffic %+v", offIC.FastPath)
		}
	})
}

// TestCalleeEscapeParityAcrossConfigs drives a refinement on an
// execution whose indirect calls escape the speculated callee set,
// across the full configuration matrix {tree, compiled} × {IC on, IC
// off} × {1, 8 static workers}: every configuration must produce the
// identical runs (violation kinds, sites, escaping callees and what
// re-executed them), identical refinement histories (generation count
// and DB digests), and the identical post-refine slice — inline caches
// and solver parallelism may only change speed, never results.
func TestCalleeEscapeParityAcrossConfigs(t *testing.T) {
	prog := lang.MustCompile(calleeProg)
	pr := profileDB(t, prog, []int64{0}, 20)
	criterion := lastPrint(prog)
	e := core.Execution{Inputs: []int64{3}, Seed: 2}

	type outcome struct {
		runs      []string
		dbDigests []string
		slice     string
	}
	run := func(engine interp.EngineKind, noIC bool, workers int) (outcome, interp.ICStats) {
		t.Helper()
		m := New(prog, pr.DB, Options{
			Static: core.StaticConfig{Cache: artifacts.New(""), Workers: workers, NoIC: noIC},
		})
		var o outcome
		var last *core.SliceReport
		var ic interp.ICStats
		o.runs, last, ic = runTwice(t, m, core.Slice(criterion, 4096), e, core.RunOptions{Engine: engine})
		if last.RolledBack || last.Slice == nil {
			t.Fatalf("loop did not converge: %+v", last.Violation)
		}
		o.slice = fmt.Sprint(last.Slice.Instrs)
		for _, g := range m.Status().History {
			o.dbDigests = append(o.dbDigests, g.DBDigest)
		}
		return o, ic
	}

	ref, refIC := run(interp.EngineCompiled, false, 1)
	first := ref.runs[0]
	if want := "kind=" + string(core.ViolationCalleeSet); !strings.Contains(first, want) {
		t.Fatalf("first run = %q, want a callee-set violation", first)
	}
	// The speculated image is monomorphic on f0: the first dispatches
	// hit, the first escaping callee deoptimizes its site.
	if refIC.Hits == 0 || refIC.Deopts == 0 {
		t.Fatalf("compiled+IC run recorded no speculation traffic: %+v", refIC)
	}

	for _, engine := range []interp.EngineKind{interp.EngineTree, interp.EngineCompiled} {
		for _, noIC := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				got, ic := run(engine, noIC, workers)
				name := fmt.Sprintf("engine=%v noIC=%v workers=%d", engine, noIC, workers)
				if fmt.Sprint(got.runs) != fmt.Sprint(ref.runs) {
					t.Errorf("%s: runs diverged:\n got: %v\n ref: %v", name, got.runs, ref.runs)
				}
				if fmt.Sprint(got.dbDigests) != fmt.Sprint(ref.dbDigests) {
					t.Errorf("%s: refinement history diverged:\n got: %v\n ref: %v", name, got.dbDigests, ref.dbDigests)
				}
				if got.slice != ref.slice {
					t.Errorf("%s: post-refine slice diverged:\n got: %v\n ref: %v", name, got.slice, ref.slice)
				}
				// ICs exist only in the compiled engine with IC on; the
				// tree engine and IC-off images must report zero traffic.
				// (Fusion and the analysis fast paths are independent
				// optimizations with their own counters.)
				if (engine == interp.EngineTree || noIC) && ic != (interp.ICStats{Fused: ic.Fused, FastPath: ic.FastPath}) {
					t.Errorf("%s: unexpected IC traffic %+v", name, ic)
				}
			}
		}
	}
}
