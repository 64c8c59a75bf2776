// Package harness regenerates every table and figure of the paper's
// evaluation (§6) over the workload suite: Figure 5 and Table 1
// (OptFT), Figure 6 and Table 2 (OptSlice), Figures 7–8 (profiling
// sweeps), and Figures 9–11 (predicated static analysis effects).
//
// Each experiment returns structured rows and has a printer that emits
// the same columns/series the paper reports. Two cost metrics appear
// side by side:
//
//   - wall-clock seconds measured on this machine (normalized to the
//     uninstrumented baseline run, like the paper's normalized-runtime
//     figures), and
//   - deterministic instrumentation-event counts, which are identical
//     on every machine and are the primary "shape" metric of this
//     reproduction.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/sched"
	"oha/internal/workloads"
)

// Options configures the experiments.
type Options struct {
	// ProfileRuns bounds the profiling convergence loop.
	ProfileRuns int
	// TestRuns is the size of the testing set per benchmark.
	TestRuns int
	// Budget bounds context-sensitive analyses (clones).
	Budget int
	// Repeat repeats each timed dynamic run to stabilize wall-clock
	// numbers.
	Repeat int
	// Parallel bounds the experiment worker pool: per-workload setups,
	// testing-set replays, and profiling runs fan out over up to
	// Parallel workers (0: runtime.GOMAXPROCS(0), 1: sequential).
	// Every deterministic output — event counts, node counts, slice
	// sizes, mis-speculation rates — is identical for every value;
	// only wall-clock readings vary.
	Parallel int
	// ExclusiveTiming serializes timed sections on a global semaphore
	// so wall-clock numbers stay stable under Parallel > 1, trading
	// away most of the parallel speedup of the timed portions.
	ExclusiveTiming bool
	// Cache, when non-nil, memoizes static artifacts (points-to, MHP,
	// static-race, static-slice results) and per-run profiling
	// databases by content address across experiments.
	Cache *artifacts.Cache
}

// Defaults fills unset options. The defaults keep the full suite
// around a minute; the paper's 64-run profile sets are reproduced
// with ProfileRuns=64.
func (o Options) Defaults() Options {
	if o.ProfileRuns == 0 {
		o.ProfileRuns = 32
	}
	if o.TestRuns == 0 {
		o.TestRuns = 8
	}
	if o.Budget == 0 {
		o.Budget = 4096
	}
	if o.Repeat == 0 {
		o.Repeat = 3
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// env bundles one experiment invocation's options with its timing gate
// and artifact cache.
type env struct {
	opts Options
	gate *sync.Mutex // non-nil: exclusive-timing semaphore
}

// newEnv prepares the experiment environment (opts must already have
// defaults applied).
func newEnv(opts Options) *env {
	e := &env{opts: opts}
	if opts.ExclusiveTiming {
		e.gate = &sync.Mutex{}
	}
	return e
}

// timed measures f, holding the exclusive-timing semaphore if enabled.
func (e *env) timed(f func() error) (float64, error) {
	if e.gate != nil {
		e.gate.Lock()
		defer e.gate.Unlock()
	}
	return timed(f)
}

// timedN is timedN under the exclusive-timing semaphore: the whole
// repeat loop runs exclusively so the minimum is taken over undisturbed
// repetitions.
func (e *env) timedN(f func() error) (float64, error) {
	if e.gate != nil {
		e.gate.Lock()
		defer e.gate.Unlock()
	}
	return timedN(e.opts.Repeat, f)
}

// profileExec builds the profiling execution for run i.
func profileExec(w *workloads.Workload, i int) core.Execution {
	return core.Execution{Inputs: w.GenInput(i), Seed: uint64(i + 1)}
}

// testExec builds the testing execution for index i (disjoint from the
// profiling range; the same generator distribution, as in the paper's
// candidate/testing corpus split).
func testExec(w *workloads.Workload, i int) core.Execution {
	return core.Execution{Inputs: w.GenInput(1000 + i), Seed: uint64(2000 + i)}
}

// plainRunner returns the uninstrumented run that Figure 5/6 runtimes
// are normalized to. It runs core.RunPlain's configuration from one
// image compiled here: RunPlain compiles on every call, and on short
// runs the compile costs as much as the run.
func plainRunner(prog *ir.Program) func(core.Execution) (*interp.Result, error) {
	code := core.PlainImage(prog, nil)
	return func(e core.Execution) (*interp.Result, error) {
		return interp.Run(interp.Config{Prog: prog, Inputs: e.Inputs, Choose: sched.NewSeeded(e.Seed), Code: code})
	}
}

// timed measures the wall-clock seconds of f.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// timedN runs f repeat times and returns the minimum duration (the
// usual noise-robust estimator for deterministic work).
func timedN(repeat int, f func() error) (float64, error) {
	best := -1.0
	for i := 0; i < repeat; i++ {
		d, err := timed(f)
		if err != nil {
			return 0, err
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// lastPrint returns the workload's final print instruction — the slice
// criterion used throughout (the program's primary output).
func lastPrint(prog *ir.Program) *ir.Instr {
	var out *ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpPrint {
			out = in
		}
	}
	return out
}

// profiled runs the profiling phase for a workload and returns the
// result plus the measured profiling seconds. Profiling runs fan out
// over the experiment's worker pool; the merge replays sequential run
// order, so the databases are bit-identical for every Parallel value.
// Under ExclusiveTiming the whole profiling phase holds the timing
// semaphore (it is a timed section).
func profiled(w *workloads.Workload, e *env) (*core.ProfileResult, float64, error) {
	var pr *core.ProfileResult
	sec, err := e.timed(func() error {
		var err error
		pr, err = core.ProfileWith(w.Prog(), func(run int) core.Execution {
			return profileExec(w, run)
		}, core.ProfileOptions{
			MaxRuns: e.opts.ProfileRuns,
			Workers: e.opts.Parallel,
			Cache:   e.opts.Cache,
		})
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: profiling: %w", w.Name, err)
	}
	return pr, sec, nil
}
