package core

import (
	"slices"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/workloads"
)

// withoutContext returns a copy of db whose context set lacks p.
func withoutContext(db *invariants.DB, p []int) *invariants.DB {
	d := db.Clone()
	d.Contexts = invariants.NewContextSet()
	for _, q := range db.Contexts.SortedPaths() {
		if !slices.Equal(p, q) {
			d.Contexts.Add(q)
		}
	}
	return d
}

// TestCallContextViolationReportsDroppedContext drops one observed
// context P at a time from a workload's profiled database and replays
// the profiled executions under OptSlice. Every execution is clean
// under the full database, so a call-context violation can only be P's:
// it must name P's last site and P itself, and refining the database
// with the violation must make the same execution run clean. The
// workloads cover every slicing program (nginx has depth-2 contexts)
// and luindex, whose threads are spawned below main, so a spawned
// thread's root context extends its parent's path.
func TestCallContextViolationReportsDroppedContext(t *testing.T) {
	var names []string
	for _, w := range workloads.Slices() {
		names = append(names, w.Name)
	}
	names = append(names, "luindex")
	cache := artifacts.New("")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w := workloads.ByName(name)
			prog := w.Prog()
			var execs []Execution
			for i := 0; i < 8; i++ {
				execs = append(execs, Execution{Inputs: w.GenInput(i), Seed: uint64(i + 1)})
			}
			db, err := ProfileN(prog, execs)
			if err != nil {
				t.Fatal(err)
			}
			var crit *ir.Instr
			for _, in := range prog.Instrs {
				if in.Op == ir.OpPrint {
					crit = in
				}
			}
			build := func(db *invariants.DB) *OptSlice {
				t.Helper()
				o, err := NewOptSliceStatic(prog, db, crit, 4096, StaticConfig{Cache: cache, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if o.AT != CS {
					t.Fatalf("analysis type %v: contexts are not checked", o.AT)
				}
				return o
			}
			run := func(o *OptSlice, e Execution) *SliceReport {
				t.Helper()
				rep, err := o.Run(e, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			full := build(db)
			for i, e := range execs {
				if rep := run(full, e); rep.RolledBack {
					t.Fatalf("exec %d rolls back under the full database: %v", i, rep.Violation)
				}
			}
			violations := 0
			for _, p := range db.Contexts.SortedPaths() {
				if len(p) == 0 {
					continue // the thread-root context is never checked
				}
				dropped := withoutContext(db, p)
				o := build(dropped)
				for i, e := range execs {
					v := run(o, e).Violation
					if v.Kind != ViolationCallContext {
						continue
					}
					violations++
					if v.Site != p[len(p)-1] || !slices.Equal(v.Path, p) {
						t.Fatalf("without %v: exec %d reports site %d path %v", p, i, v.Site, v.Path)
					}
					refined := dropped.Clone()
					if !v.Refine(prog, refined) {
						t.Fatalf("without %v: refining with %v changed nothing", p, v)
					}
					if rep := run(build(refined), e); rep.RolledBack {
						t.Fatalf("without %v: exec %d still rolls back after refinement: %v", p, i, rep.Violation)
					}
				}
			}
			if violations == 0 {
				t.Fatal("no dropped context raised a call-context violation")
			}
		})
	}
}
