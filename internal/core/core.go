// Package core implements optimistic hybrid analysis — the paper's
// primary contribution — by wiring together the three phases of §2:
//
//  1. likely-invariant profiling (package profile), ending with the
//     proposal of §4.2.4's elidable lock sites, which a speculative run
//     validates: a race reported while they are elided rolls it back;
//  2. predicated static analysis (packages pointsto, mhp, staticrace,
//     staticslice over an invariant-restricted ctxs.Tree);
//  3. speculative dynamic analysis: the client analysis (FastTrack,
//     the dynamic slicer or the null checker) runs with instrumentation
//     elided per the predicated static results, alongside a cheap check
//     of every fact kind those results read; a violated invariant
//     aborts the run, which re-executes under the refined generation
//     that drops the violated fact, or under the traditional (sound)
//     hybrid analysis when no refinement applies.
//
// Three clients are provided, each with its traditional baselines for
// the evaluation harness: OptFT (race detection, §4; pure and hybrid
// FastTrack), OptSlice (backward slicing, §5; full and hybrid Giri),
// and OptNull (null/misuse checking; always-check and hybrid). All
// three share one speculative run → check → roll back path
// (speculate).
package core

import (
	"context"
	"fmt"

	"oha/internal/artifacts"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/profile"
	"oha/internal/sched"
)

// Execution identifies one concrete execution to analyze: a program
// input vector plus a schedule seed. Determinism of the interpreter
// and seeded scheduler makes re-running an Execution exact — this is
// the record/replay substrate the rollback path relies on (§2.3).
type Execution struct {
	Inputs []int64
	Seed   uint64
}

// RunOptions bounds executions. Ctx, when non-nil, makes every run
// entry point context-aware: cancellation (a daemon shutdown, a per-job
// timeout) stops the interpreter within one scheduling quantum with an
// error wrapping interp.ErrCanceled. Rollback re-executions inherit the
// same context, so a canceled job never starts its sound re-run.
type RunOptions struct {
	Quantum  int
	MaxSteps uint64
	Ctx      context.Context
	// Engine selects the interpreter engine (default: compiled
	// bytecode; interp.EngineTree for the reference tree-walker).
	Engine interp.EngineKind
}

// chooser builds the deterministic chooser for an execution.
func (e Execution) chooser() sched.Chooser { return sched.NewSeeded(e.Seed) }

// ProfileResult is the outcome of the profiling phase.
type ProfileResult struct {
	DB   *invariants.DB
	Runs int // executions profiled before convergence
	// BlockRuns counts, per block ID, how many profiled executions
	// entered the block (for aggressive-invariant construction).
	BlockRuns map[int]int
}

// AggressiveDB returns a copy of the profiled invariants with the
// likely-unreachable-code invariant strengthened per §2.1's
// stability/strength trade-off: blocks visited in strictly fewer than
// minFrac of the profiled executions are *also* assumed unreachable,
// even though profiling did occasionally reach them. The stronger
// assumption elides more instrumentation at the cost of more
// mis-speculations; soundness is unaffected (the violated check still
// rolls back). minFrac = 0 reproduces the standard invariant set;
// minFrac = 1 keeps only blocks visited in every profiled execution.
func (pr *ProfileResult) AggressiveDB(minFrac float64) *invariants.DB {
	db := pr.DB.Clone()
	if minFrac <= 0 || pr.Runs == 0 {
		return db
	}
	threshold := minFrac * float64(pr.Runs)
	for block, runs := range pr.BlockRuns {
		if float64(runs) < threshold {
			db.Visited.Remove(block)
		}
	}
	return db
}

// ProfileOptions configures the profiling phase.
type ProfileOptions struct {
	// MaxRuns bounds the convergence loop.
	MaxRuns int
	// StableWindow is the convergence window (0: default 5).
	StableWindow int
	// Workers bounds the profiling worker pool (<= 0: GOMAXPROCS;
	// 1: sequential). Results are bit-identical for every value.
	Workers int
	// Cache, when non-nil, memoizes per-run invariant databases by
	// content address — repeated sweeps over overlapping profiling
	// sets (Figures 7/8) then re-run nothing.
	Cache *artifacts.Cache
	// Ctx, when non-nil, cancels the profiling loop: it is checked
	// before every profiling run and threaded into each execution, so
	// cancellation takes effect within one scheduling quantum.
	Ctx context.Context
	// Code, when non-nil, is the program's profiling bytecode image
	// (BaseImage: compiled from profile.Masks), shared by every
	// profiling run instead of compiled per run. Long-lived callers
	// (the analysis daemon) pass their stored image; when nil, the
	// profiling entry points compile one image per call, which
	// amortizes across the runs of that call.
	Code *interp.Code
}

// ctxErr returns ctx's cancellation as an error wrapping
// interp.ErrCanceled, or nil while ctx (nil: none) is live.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", interp.ErrCanceled, err)
	}
	return nil
}

// memoRunner wraps profile.Run with cancellation and per-execution
// memoization. The returned databases are clones: the convergence loop
// mutates its merge accumulator, and cached values must stay immutable.
func memoRunner(ctx context.Context, cache *artifacts.Cache, code *interp.Code) profile.Runner {
	if ctx == nil && cache == nil && code == nil {
		return nil
	}
	return func(prog *ir.Program, inputs []int64, seed uint64) (*invariants.DB, error) {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if cache == nil {
			return profile.RunCoded(ctx, code, prog, inputs, seed)
		}
		v, err := cache.Memo(artifacts.ExecKey(prog, inputs, seed), artifacts.DBCodec(), func() (any, error) {
			return profile.RunCoded(ctx, code, prog, inputs, seed)
		})
		if err != nil {
			return nil, err
		}
		return v.(*invariants.DB).Clone(), nil
	}
}

// Profile learns likely invariants from executions generated by gen,
// running until the invariant set is stable (§6.1: "profile increasing
// numbers of executions until the number of learned dynamic invariants
// stabilizes") or maxRuns executions.
func Profile(prog *ir.Program, gen func(run int) Execution, maxRuns int) (*ProfileResult, error) {
	return ProfileWith(prog, gen, ProfileOptions{MaxRuns: maxRuns, Workers: 1})
}

// ProfileWith is Profile with an explicit worker pool and optional
// per-run memoization. The merge replays the sequential run order, so
// the result is bit-identical to Profile for every worker count.
// It ends by setting DB.ElidableLocks to the lock sites the predicated
// static race analysis proposes to elide (§4.2.4); o.Cache memoizes
// that solve, which a race detector for DB then reuses.
func ProfileWith(prog *ir.Program, gen func(run int) Execution, o ProfileOptions) (*ProfileResult, error) {
	if o.StableWindow == 0 {
		o.StableWindow = 5
	}
	if o.Code == nil {
		o.Code = interp.Compile(prog, profile.Masks(prog))
	}
	db, st, err := profile.ConvergeOpt(prog, func(run int) ([]int64, uint64) {
		e := gen(run)
		return e.Inputs, e.Seed
	}, profile.Options{
		MaxRuns:      o.MaxRuns,
		StableWindow: o.StableWindow,
		Workers:      o.Workers,
		Runner:       memoRunner(o.Ctx, o.Cache, o.Code),
	})
	if err != nil {
		return nil, err
	}
	if err := proposeElidableLocks(prog, db, StaticConfig{Cache: o.Cache, Workers: o.Workers}); err != nil {
		return nil, err
	}
	return &ProfileResult{DB: db, Runs: st.Runs, BlockRuns: st.BlockRuns}, nil
}

// ProfileN learns likely invariants from exactly the given executions
// (no convergence loop) — used when the caller wants precise control,
// e.g. the Figure 7/8 profiling sweeps. Runs fan out over the default
// worker pool and merge in run-index order, so the result is
// deterministic and identical to a sequential merge. The elidable
// locks are proposed as in ProfileWith.
func ProfileN(prog *ir.Program, execs []Execution) (*invariants.DB, error) {
	return ProfileNWith(prog, execs, 0, nil)
}

// ProfileNWith is ProfileN with an explicit worker count (<= 0:
// GOMAXPROCS, 1: sequential) and optional per-run memoization.
func ProfileNWith(prog *ir.Program, execs []Execution, workers int, cache *artifacts.Cache) (*invariants.DB, error) {
	pexecs := make([]profile.Exec, len(execs))
	for i, e := range execs {
		pexecs[i] = profile.Exec{Inputs: e.Inputs, Seed: e.Seed}
	}
	code := interp.Compile(prog, profile.Masks(prog))
	dbs, err := profile.RunAllWith(prog, pexecs, workers, memoRunner(nil, cache, code))
	if err != nil {
		return nil, err
	}
	db := invariants.Merge(dbs...)
	if err := proposeElidableLocks(prog, db, StaticConfig{Cache: cache, Workers: workers}); err != nil {
		return nil, err
	}
	return db, nil
}
