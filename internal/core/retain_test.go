package core

import (
	"runtime"
	"testing"
	"time"

	"oha/internal/artifacts"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/workloads"
)

// TestSetupDoesNotPinProgram runs a program through every cold set-up
// layer — profiling with its elidable-lock proposal, OptFT, OptSlice
// and OptNull, all through one artifact cache — then drops the program,
// the cache and every analysis, and requires the program to be
// collected: no layer may keep it in a process-global table.
func TestSetupDoesNotPinProgram(t *testing.T) {
	w := workloads.ByName("raytracer")
	collected := make(chan struct{})
	func() {
		prog := lang.MustCompile(w.Source)
		cache := artifacts.New("")
		gen := func(run int) Execution { return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)} }
		pr, err := ProfileWith(prog, gen, ProfileOptions{MaxRuns: 6, Workers: 1, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewOptFTCached(prog, pr.DB.Clone(), cache)
		if err != nil {
			t.Fatal(err)
		}
		if o.DB.ElidableLocks.IsEmpty() {
			t.Fatal("no lock elided: profiling proposed no elidable lock")
		}
		var crit *ir.Instr
		for _, in := range prog.Instrs {
			if in.Op == ir.OpPrint {
				crit = in
			}
		}
		if _, err := NewOptSliceCached(prog, pr.DB.Clone(), crit, 4096, cache); err != nil {
			t.Fatal(err)
		}
		if _, err := NewOptNull(prog, pr.DB.Clone(), StaticConfig{Cache: cache, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(prog, func(*ir.Program) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a set-up program stayed reachable after its last reference dropped")
}
