// Parallel profiling: profiling runs are deterministic (inputs, seed)
// executions producing independent per-run invariant databases, so
// they fan out over a bounded worker pool and merge in run-index
// order. Merging in index order makes every parallel result
// bit-identical to the sequential one — the convergence loop batches a
// window of runs per round and replays the sequential merge/stop
// decision over the batch, discarding any runs scheduled past the
// point where the sequential loop would have stopped.
package profile

import (
	"errors"
	"runtime"

	"oha/internal/invariants"
	"oha/internal/ir"
)

// Exec identifies one profiling execution: an input vector plus a
// schedule seed.
type Exec struct {
	Inputs []int64
	Seed   uint64
}

// Runner executes one profiling run. The Converge* and RunAll entry
// points call it for every run, so callers can interpose memoization
// (see oha/internal/artifacts) or instrumentation. A nil Runner means
// Run. The convergence loop may retain the first returned database as
// its merge accumulator and mutate it — a memoizing Runner must return
// a private clone, never a shared cached value.
type Runner func(prog *ir.Program, inputs []int64, seed uint64) (*invariants.DB, error)

// Options configures a convergence loop.
type Options struct {
	// MaxRuns bounds the number of profiled executions.
	MaxRuns int
	// StableWindow is the number of consecutive no-new-invariant runs
	// required to declare convergence (core.ProfileWith defaults it).
	StableWindow int
	// Workers bounds the worker pool (<= 0: runtime.GOMAXPROCS(0);
	// 1: fully sequential, no goroutines spawned).
	Workers int
	// Run executes one profiling run (nil: Run).
	Runner Runner
}

func (o Options) defaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Runner == nil {
		o.Runner = Run
	}
	return o
}

// runAll executes the given profiling runs on a pool of `workers`
// goroutines, returning per-run databases and errors in input order.
func runAll(prog *ir.Program, execs []Exec, workers int, run Runner) ([]*invariants.DB, []error) {
	if run == nil {
		run = Run
	}
	dbs := make([]*invariants.DB, len(execs))
	errs := make([]error, len(execs))
	if workers > len(execs) {
		workers = len(execs)
	}
	if workers <= 1 {
		for i, e := range execs {
			dbs[i], errs[i] = run(prog, e.Inputs, e.Seed)
		}
		return dbs, errs
	}
	work := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range work {
				dbs[i], errs[i] = run(prog, execs[i].Inputs, execs[i].Seed)
			}
		}()
	}
	for i := range execs {
		work <- i
	}
	close(work)
	for w := 0; w < workers; w++ {
		<-done
	}
	return dbs, errs
}

// RunAll profiles the given executions concurrently on a bounded
// worker pool (workers <= 0: GOMAXPROCS) and returns the per-run
// databases in execution order. On failure it returns the error of the
// lowest-index failing run — exactly the error the sequential loop
// would have reported.
func RunAll(prog *ir.Program, execs []Exec, workers int) ([]*invariants.DB, error) {
	return RunAllWith(prog, execs, workers, Run)
}

// RunAllWith is RunAll with an explicit Runner (nil: Run), so callers
// can interpose per-run memoization.
func RunAllWith(prog *ir.Program, execs []Exec, workers int, run Runner) ([]*invariants.DB, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dbs, errs := runAll(prog, execs, workers, run)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return dbs, nil
}

// ConvergeOpt is the convergence loop: profile executions drawn from
// gen until the merged invariant set is unchanged for StableWindow
// consecutive runs (or MaxRuns is hit), mirroring the paper's "profile
// increasing numbers of executions until the learned invariants
// stabilize" methodology. It also returns per-block visit-run counts
// for aggressive-invariant construction.
// Runs execute on a worker pool, but the merge — and therefore the
// returned database, statistics, and stop decision — replays the
// sequential order, so the result is bit-identical for every worker
// count. gen is always invoked from the calling goroutine, in run
// order; with Workers > 1 it may be invoked for a few runs past the
// convergence point (their executions are discarded).
func ConvergeOpt(prog *ir.Program, gen func(run int) (inputs []int64, seed uint64), o Options) (*invariants.DB, *Stats, error) {
	o = o.defaults()
	st := &Stats{BlockRuns: map[int]int{}}
	var merged *invariants.DB
	stable := 0
	next := 0 // next run index to schedule
	for st.Runs < o.MaxRuns {
		batch := o.Workers
		if rem := o.MaxRuns - next; batch > rem {
			batch = rem
		}
		if batch < 1 {
			break
		}
		execs := make([]Exec, batch)
		for i := range execs {
			inputs, seed := gen(next + i)
			execs[i] = Exec{Inputs: inputs, Seed: seed}
		}
		next += batch
		dbs, errs := runAll(prog, execs, o.Workers, o.Runner)

		// Replay the sequential merge over the batch, in run order.
		converged := false
		for i := 0; i < batch; i++ {
			if errs[i] != nil {
				return nil, st, errs[i]
			}
			db := dbs[i]
			st.Runs++
			db.Visited.ForEach(func(b int) bool {
				st.BlockRuns[b]++
				return true
			})
			if merged == nil {
				merged = db
				stable = 0
				continue
			}
			if !merged.MergeInto(db) {
				stable++
				if stable >= o.StableWindow {
					converged = true
					break
				}
			} else {
				stable = 0
			}
		}
		if converged {
			break
		}
	}
	if merged == nil {
		return nil, st, errors.New("profile: no executions profiled (maxRuns < 1)")
	}
	return merged, st, nil
}
