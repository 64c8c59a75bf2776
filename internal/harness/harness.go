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
	"slices"
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
	// Repeat is the number of timing rounds per Figure 5/6 testing
	// execution; each configuration reports its median over them.
	Repeat int
	// Parallel bounds the profiling worker pool and fans the workloads
	// of the other experiments out over up to Parallel workers (0:
	// runtime.GOMAXPROCS(0), 1: sequential). Figures 5/6 time one
	// workload at a time. Every deterministic output — event counts,
	// node counts, slice sizes, mis-speculation rates — is identical
	// for every value; only wall-clock readings vary.
	Parallel int
	// Cache, when non-nil, memoizes static artifacts (points-to, MHP,
	// static-race, static-slice results) and per-run profiling
	// databases by content address across the experiments that do not
	// time their set-up (Figures 7–11 and Adaptive). Figures 5/6 never
	// consult it, so no set-up time they report is a cache hit.
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
	if o.Repeat <= 0 {
		o.Repeat = 3
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
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

// profiled runs the profiling phase for a workload. Profiling runs
// fan out over Parallel workers; the merge replays sequential run
// order, so the databases are bit-identical for every Parallel value.
func profiled(w *workloads.Workload, opts Options, cache *artifacts.Cache) (*core.ProfileResult, error) {
	pr, err := core.ProfileWith(w.Prog(), func(run int) core.Execution {
		return profileExec(w, run)
	}, core.ProfileOptions{
		MaxRuns: opts.ProfileRuns,
		Workers: opts.Parallel,
		Cache:   cache,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: profiling: %w", w.Name, err)
	}
	return pr, nil
}

// timed returns the wall-clock seconds f takes.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// rounds times one testing execution under every configuration in
// runs. Each of repeat rounds follows a runtime.GC() and runs every
// configuration once, starting one configuration later than the round
// before, so no configuration always runs first or straight after a
// collection. It returns sec[config][round].
func rounds(repeat int, runs []func() error) ([][]float64, error) {
	sec := make([][]float64, len(runs))
	for c := range sec {
		sec[c] = make([]float64, repeat)
	}
	for r := 0; r < repeat; r++ {
		runtime.GC()
		for k := range runs {
			c := (r + k) % len(runs)
			d, err := timed(runs[c])
			if err != nil {
				return nil, err
			}
			sec[c][r] = d
		}
	}
	return sec, nil
}

// Quartiles summarises a sample by its median and interquartile range.
type Quartiles struct {
	P25, Median, P75 float64
}

// quartiles returns the linearly interpolated quartiles of xs.
func quartiles(xs []float64) Quartiles {
	if len(xs) == 0 {
		return Quartiles{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return Quartiles{P25: at(0.25), Median: at(0.5), P75: at(0.75)}
}

// Resolved reports whether a ratio's sign is settled: both quartiles
// lie on the same side of 1.
func (q Quartiles) Resolved() bool { return q.P75 < 1 || q.P25 > 1 }

// String renders a ratio as "median [p25,p75] mark", the mark being
// <1 or >1 when resolved and ~1 when the quartiles straddle 1.
func (q Quartiles) String() string {
	mark := "~1"
	switch {
	case q.P75 < 1:
		mark = "<1"
	case q.P25 > 1:
		mark = ">1"
	}
	return fmt.Sprintf("%5.2f [%4.2f,%4.2f] %s", q.Median, q.P25, q.P75, mark)
}
