package core

import (
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
)

// interpSrc models a small dispatch interpreter (the perl-style
// workload shape): indirect calls, input-dependent paths.
const interpSrc = `
	global acc = 0;
	global noise = 0;
	global fp = 0;
	func id(x) { return x; }
	func opAdd(v) { acc = acc + v; return 0; }
	func opMul(v) { acc = acc * v; return 0; }
	func opRare(v) { acc = acc - v * 3; return 0; }
	func dispatch(code, v) {
		fp = opAdd;
		if (code == 1) { fp = opMul; }
		if (code == 2) { fp = opRare; }
		var h = fp;
		h(v);
		return 0;
	}
	func main() {
		var n = ninputs();
		var i = 0;
		while (i + 1 < n) {
			// The id() helper is shared between the relevant dispatch
			// operand and irrelevant bookkeeping: a context-insensitive
			// slicer merges the two call sites and drags the noise
			// computation into every slice.
			noise = noise + id(i);
			dispatch(id(input(i)), input(i + 1));
			i = i + 2;
		}
		print(acc);
	}
`

func lastPrintOf(t *testing.T, p *ir.Program) *ir.Instr {
	t.Helper()
	var out *ir.Instr
	for _, in := range p.Instrs {
		if in.Op == ir.OpPrint {
			out = in
		}
	}
	if out == nil {
		t.Fatal("no print")
	}
	return out
}

// commonInputs uses only opcodes 0 and 1.
func commonInputs() []int64 { return []int64{0, 5, 1, 3, 0, 2, 1, 4} }

// rareInputs exercises opcode 2 (opRare).
func rareInputs() []int64 { return []int64{2, 5, 0, 1} }

func TestOptSliceEquivalentAndCheaper(t *testing.T) {
	prog := lang.MustCompile(interpSrc)
	criterion := lastPrintOf(t, prog)
	pr := mustProfile(t, prog, func(run int) Execution {
		return Execution{Inputs: commonInputs(), Seed: uint64(run + 1)}
	}, 20)

	opt, err := NewOptSlice(prog, pr.DB, criterion, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Table-2 configuration: the traditional hybrid slicer only scales
	// to a context-insensitive analysis (budget 1 forces the CI
	// fallback); the predicated analysis runs context-sensitively.
	hy, err := NewHybridSlicer(prog, criterion, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hy.AT != CI {
		t.Fatalf("sound AT = %s, want CI", hy.AT)
	}
	if opt.AT != CS {
		t.Fatalf("optimistic AT = %s, want CS", opt.AT)
	}
	opt.Sound = hy

	// The predicated static slice must be smaller.
	if opt.Static.Size() >= hy.Static.Size() {
		t.Errorf("predicated slice (%d) not smaller than sound (%d)",
			opt.Static.Size(), hy.Static.Size())
	}

	e := Execution{Inputs: commonInputs(), Seed: 9}
	full, err := RunFullGiri(prog, criterion, e, RunOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hrep, err := hy.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	orep, err := opt.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if orep.RolledBack {
		t.Fatalf("clean run rolled back: %s", orep.Violation)
	}
	// All three compute the same dynamic slice.
	if !full.Slice.Equal(hrep.Slice) {
		t.Fatalf("hybrid slice differs from full Giri:\n%v\n%v",
			hrep.Slice.Instrs, full.Slice.Instrs)
	}
	if !full.Slice.Equal(orep.Slice) {
		t.Fatalf("optimistic slice differs from full Giri:\n%v\n%v",
			orep.Slice.Instrs, full.Slice.Instrs)
	}
	// Work ordering: optimistic < hybrid < full tracing.
	if !(orep.TraceNodes < hrep.TraceNodes && hrep.TraceNodes < full.TraceNodes) {
		t.Errorf("trace-node ordering broken: opt=%d hybrid=%d full=%d",
			orep.TraceNodes, hrep.TraceNodes, full.TraceNodes)
	}
}

func TestOptSliceRollbackOnCalleeViolation(t *testing.T) {
	prog := lang.MustCompile(interpSrc)
	criterion := lastPrintOf(t, prog)
	pr := mustProfile(t, prog, func(run int) Execution {
		return Execution{Inputs: commonInputs(), Seed: uint64(run + 1)}
	}, 20)
	opt, err := NewOptSlice(prog, pr.DB, criterion, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Analyze an execution that dispatches to the unprofiled opRare.
	e := Execution{Inputs: rareInputs(), Seed: 2}
	orep, err := opt.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !orep.RolledBack {
		t.Fatal("unprofiled callee did not trigger rollback")
	}
	// The rolled-back result equals full Giri's.
	full, err := RunFullGiri(prog, criterion, e, RunOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Slice.Equal(orep.Slice) {
		t.Fatalf("rollback slice differs from full Giri:\n%v\n%v",
			orep.Slice.Instrs, full.Slice.Instrs)
	}
}

func TestOptSliceRollbackOnLUCViolation(t *testing.T) {
	src := `
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
	prog := lang.MustCompile(src)
	criterion := lastPrintOf(t, prog)
	pr := mustProfile(t, prog, func(run int) Execution {
		return Execution{Inputs: []int64{3, 9}, Seed: uint64(run + 1)}
	}, 10)
	opt, err := NewOptSlice(prog, pr.DB, criterion, 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := Execution{Inputs: []int64{99, 9}, Seed: 1}
	orep, err := opt.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !orep.RolledBack {
		t.Fatal("LUC entry did not trigger rollback")
	}
	full, err := RunFullGiri(prog, criterion, e, RunOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Slice.Equal(orep.Slice) {
		t.Fatal("rollback slice differs from full Giri")
	}
}

// Deep context program: sound CS explodes a tiny budget; restricted CS
// fits. This is the Figure 11 "call-context invariant unlocks CS"
// effect.
const deepCtxSrc = `
	func leaf(x) { return x + 1; }
	func l1(x, k) { if (k) { return leaf(x) + leaf(x); } return leaf(x); }
	func l2(x, k) { if (k) { return l1(x, k) + l1(x, k); } return l1(x, 0); }
	func l3(x, k) { if (k) { return l2(x, k) + l2(x, k); } return l2(x, 0); }
	func l4(x, k) { if (k) { return l3(x, k) + l3(x, k); } return l3(x, 0); }
	func main() {
		var r = l4(input(0), input(1));
		print(r);
	}
`

func TestContextRestrictionUnlocksCS(t *testing.T) {
	prog := lang.MustCompile(deepCtxSrc)
	criterion := lastPrintOf(t, prog)
	budget := 24

	// Sound analysis: CS fails at this budget, falls back to CI.
	hy, err := NewHybridSlicer(prog, criterion, budget)
	if err != nil {
		t.Fatal(err)
	}
	if hy.AT != CI {
		t.Fatalf("sound AT = %s, expected CI fallback at budget %d", hy.AT, budget)
	}

	// Profile the k=0 paths only; restricted CS now fits.
	pr := mustProfile(t, prog, func(run int) Execution {
		return Execution{Inputs: []int64{int64(run), 0}, Seed: uint64(run + 1)}
	}, 10)
	opt, err := NewOptSlice(prog, pr.DB, criterion, budget)
	if err != nil {
		t.Fatal(err)
	}
	if opt.AT != CS {
		t.Fatalf("optimistic AT = %s, expected CS under context restriction", opt.AT)
	}
	if opt.Static.Size() >= hy.Static.Size() {
		t.Errorf("restricted-CS slice (%d) not smaller than CI sound slice (%d)",
			opt.Static.Size(), hy.Static.Size())
	}

	// On a profiled-like execution: no rollback, identical dynamic slice.
	e := Execution{Inputs: []int64{42, 0}, Seed: 5}
	orep, err := opt.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if orep.RolledBack {
		t.Fatalf("unexpected rollback: %s", orep.Violation)
	}
	full, err := RunFullGiri(prog, criterion, e, RunOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Slice.Equal(orep.Slice) {
		t.Fatal("optimistic CS slice differs from full Giri")
	}

	// On an unprofiled deep-context execution: context violation,
	// rollback, still-identical results.
	e2 := Execution{Inputs: []int64{42, 1}, Seed: 5}
	orep2, err := opt.Run(e2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !orep2.RolledBack {
		t.Fatal("unobserved call context did not trigger rollback")
	}
	full2, err := RunFullGiri(prog, criterion, e2, RunOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !full2.Slice.Equal(orep2.Slice) {
		t.Fatal("rolled-back slice differs from full Giri")
	}
}

func TestFullGiriExhaustsOnLongRuns(t *testing.T) {
	src := `
		global g = 0;
		func main() {
			var i = 0;
			while (i < 100000) { g = g + i; i = i + 1; }
			print(g);
		}
	`
	prog := lang.MustCompile(src)
	criterion := lastPrintOf(t, prog)
	e := Execution{Seed: 1}
	if _, err := RunFullGiri(prog, criterion, e, RunOptions{}, 5000); err == nil {
		t.Fatal("full tracing did not exhaust the node budget")
	}
	// The hybrid slicer handles the same execution fine.
	hy, err := NewHybridSlicer(prog, criterion, 4096)
	if err != nil {
		t.Fatal(err)
	}
	hy.MaxTraceNodes = 1 << 20
	if _, err := hy.Run(e, RunOptions{}); err != nil {
		t.Fatalf("hybrid slicing failed: %v", err)
	}
}

func TestSliceOfUnexecutedCriterion(t *testing.T) {
	src := `
		func main() {
			if (input(0)) { print(1); }
			print(2);
		}
	`
	prog := lang.MustCompile(src)
	var first *ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpPrint {
			first = in
			break
		}
	}
	hy, err := NewHybridSlicer(prog, first, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hy.Run(Execution{Inputs: []int64{0}, Seed: 1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slice != nil {
		t.Error("slice of never-executed criterion should be nil")
	}
}

// The slicers consume Exec, call/ret/spawn and checked-block events
// only, so their runs must deliver no Load/Store/Lock/Unlock event, and
// each report must be the same under both engines.
func TestSlicerRunsDeliverNoMemoryOrSyncEvents(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		profile []int64
		runs    [][]int64
	}{
		{"locked", lockedCounter, []int64{5}, [][]int64{{7}}},
		{"dispatch", interpSrc, commonInputs(), [][]int64{commonInputs(), rareInputs()}},
	}
	for _, c := range cases {
		prog := lang.MustCompile(c.src)
		criterion := lastPrintOf(t, prog)
		pr := mustProfile(t, prog, func(run int) Execution {
			return Execution{Inputs: c.profile, Seed: uint64(run + 1)}
		}, 10)
		opt, err := NewOptSlice(prog, pr.DB, criterion, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range c.runs {
			e := Execution{Inputs: in, Seed: 3}
			full, err := RunFullGiri(prog, criterion, e, RunOptions{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if full.Stats.Loads == 0 || full.Stats.Stores == 0 {
				t.Fatalf("%s: program performs no instrumented memory ops", c.name)
			}
			slicers := map[string]func(RunOptions) (*SliceReport, error){
				"opt":    func(o RunOptions) (*SliceReport, error) { return opt.Run(e, o) },
				"hybrid": func(o RunOptions) (*SliceReport, error) { return opt.Sound.Run(e, o) },
			}
			for name, run := range slicers {
				compiled, err := run(RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				tree, err := run(RunOptions{Engine: interp.EngineTree})
				if err != nil {
					t.Fatal(err)
				}
				for _, rep := range []*SliceReport{compiled, tree} {
					if st := rep.Stats; st.Loads+st.Stores+st.Locks+st.Unlocks != 0 {
						t.Errorf("%s/%s: memory/sync events delivered: %+v", c.name, name, st)
					}
				}
				if !compiled.Slice.Equal(tree.Slice) || compiled.Slice.DynNodes != tree.Slice.DynNodes ||
					compiled.TraceNodes != tree.TraceNodes || compiled.Stats != tree.Stats ||
					compiled.RolledBack != tree.RolledBack {
					t.Errorf("%s/%s: engines disagree:\ncompiled %+v\ntree     %+v", c.name, name, compiled, tree)
				}
				if !compiled.Slice.Equal(full.Slice) {
					t.Errorf("%s/%s: slice differs from full Giri", c.name, name)
				}
			}
		}
	}
}
