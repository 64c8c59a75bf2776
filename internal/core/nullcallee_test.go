package core

import (
	"fmt"
	"slices"
	"testing"

	"oha/internal/ir"
	"oha/internal/lang"
)

// nullCalleeSrc's non-null proof depends on a pruned indirect callee.
// clear stores 0 through its parameter; its only profiled caller is the
// direct call on &other, so it is visited, and the dispatch through
// ftab only ever reaches keep. Under that likely callee set, cur is
// only ever written non-null values, its load is soundly non-null, and
// the check on *p is discharged without assuming any non-null load.
// Input 1 dispatches to clear with &cur, outside the likely set, and
// *p then dereferences nil.
const nullCalleeSrc = `
	global slab = 7;
	global spare = 3;
	global cur = 1;
	global other = 1;
	global ftab[2];
	func keep(q) { return 0; }
	func clear(q) { *q = 0; return 0; }
	func main() {
		cur = &slab;
		other = &spare;
		ftab[0] = keep;
		ftab[1] = clear;
		clear(&other);
		var h = ftab[input(0)];
		h(&cur);
		var p = cur;
		print(*p);
	}
`

// TestOptNullCalleeSetCell: OptNull's predicated proof discharges *p
// only because the dispatch's likely callee set prunes clear. A testing
// run that dispatches to clear rolls back with callee-set, the first of
// the facts its chain refutes, and its verdicts equal the always-check
// baseline's; a profiled input runs clean with the check on *p
// discharged. Results are the same at workers 1 and 8.
func TestOptNullCalleeSetCell(t *testing.T) {
	prog := lang.MustCompile(nullCalleeSrc)
	var loadCur, deref *ir.Instr // p = cur, and *p
	for _, in := range prog.Instrs {
		switch {
		case in.Op != ir.OpLoad || in.Block.Fn.Name != "main":
		case in.A.Kind == ir.OperGlobal && in.A.Global.Name == "cur":
			loadCur = in
		case in.A.Kind == ir.OperVar:
			deref = in
		}
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers/%d", workers), func(t *testing.T) {
			pr, err := ProfileWith(prog, gen(0), ProfileOptions{MaxRuns: 8, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			o, err := NewOptNull(prog, pr.DB, StaticConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !o.Pred.Discharged.Has(deref.ID) || o.Pred.UsedFacts.Has(loadCur.ID) {
				t.Fatalf("*p discharged %v, load of cur assumed non-null %v; want a proof from the callee set alone",
					o.Pred.Discharged.Has(deref.ID), o.Pred.UsedFacts.Has(loadCur.ID))
			}
			sound, err := o.gens.sound.get()
			if err != nil {
				t.Fatal(err)
			}
			if sound.Static.Discharged.Has(deref.ID) {
				t.Fatal("the sound proof discharges *p too: the cell needs no callee set")
			}
			for _, c := range []struct {
				e       Execution
				wantNil bool
			}{{Execution{Inputs: []int64{0}, Seed: 1}, false}, {Execution{Inputs: []int64{1}, Seed: 1}, true}} {
				want, err := RunNullAlways(prog, c.e, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := o.Run(c.e, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if slices.Contains(want.NilSites, deref.ID) != c.wantNil {
					t.Fatalf("%v: baseline nil sites %v", c.e, want.NilSites)
				}
				if !slices.Equal(got.NilSites, want.NilSites) || got.NilDerefs != want.NilDerefs || !slices.Equal(got.Output, want.Output) {
					t.Fatalf("%v: OptNull nil sites %v (%d), baseline %v (%d)", c.e, got.NilSites, got.NilDerefs, want.NilSites, want.NilDerefs)
				}
				if !c.wantNil {
					if got.RolledBack {
						t.Fatalf("%v: profiled input rolled back: %v", c.e, got.Violation)
					}
					continue
				}
				if !got.RolledBack || got.Violation.Kind != ViolationCalleeSet {
					t.Fatalf("%v: rolledBack=%v violation %v, want a callee-set rollback", c.e, got.RolledBack, got.Violation)
				}
			}
		})
	}
}
