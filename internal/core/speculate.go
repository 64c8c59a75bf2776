package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
)

// RollbackTarget names what produced a rolled-back run's result.
type RollbackTarget string

// Rollback targets.
const (
	// RollbackRefined: a clean speculative re-execution under a refined
	// generation, the detector for the database the refuted facts'
	// kind rules weaken.
	RollbackRefined RollbackTarget = "refined"
	// RollbackSound: the traditional (sound) hybrid re-execution.
	RollbackSound RollbackTarget = "sound"
)

// Outcome is the part of a report the speculative pipeline owns. Every
// client's report embeds it, so its fields read (and encode) as the
// report's own.
type Outcome struct {
	// Stats are the interpreter's event counts for the run. For a
	// rolled-back run they include every aborted attempt.
	Stats interp.Stats
	// CheckEvents counts invariant-check events (optimistic runs),
	// summed over every speculative attempt of a rolled-back run.
	CheckEvents uint64
	// RolledBack reports that the speculative run mis-speculated and
	// the results come from a re-execution (RolledBackTo says which).
	RolledBack bool
	// Violation is the structured mis-speculation reason when
	// RolledBack (the first violation the speculative run raised).
	Violation Violation
	// RolledBackTo names what re-executed a rolled-back run: a refined
	// generation or the sound analysis ("" when not RolledBack).
	RolledBackTo RollbackTarget
	// Refuted lists every fact a rolled-back run's attempts refuted, in
	// order: Violation first, then each refined generation's.
	Refuted []Violation
	// Output is the analyzed program's output.
	Output []int64
	// IC reports the compiled engine's speculative-dispatch activity
	// (inline-cache hits/misses/deopts, fused superinstructions). For a
	// rolled-back run it includes every aborted attempt's counts. Zero
	// under the tree-walking engine.
	IC interp.ICStats
}

// Base returns the outcome itself; through embedding it gives generic
// code (the rollback path, the adaptive manager) a report's shared
// fields.
func (o *Outcome) Base() *Outcome { return o }

// outcomeOf starts the outcome of a completed run.
func outcomeOf(res *interp.Result) Outcome {
	return Outcome{Stats: res.Stats, Output: res.Output, IC: res.IC}
}

// Report is implemented by every client's report through its embedded
// Outcome.
type Report interface{ Base() *Outcome }

// checkState is the verdict a run's checker keeps: the abort flag it
// raises, the first violation in structured form, and the count of
// check events.
type checkState struct {
	abort *interp.Abort
	// first mirrors abort's first-wins reason in structured form.
	first Violation
	// Events counts check events processed (for cost accounting).
	Events uint64
}

// violate raises the abort flag with v. The structured record follows
// the flag's first-wins rule, so it always describes the violation
// whose reason the abort reports — even when another tracer sharing
// the flag (the slicer's trace limit) raced it within one event chain.
func (c *checkState) violate(v Violation) {
	if !c.abort.IsSet() {
		c.first = v
	}
	c.abort.Set(v.String())
}

// maxRefinements bounds a rollback's refinement chain: a run that this
// many refined generations in a row mis-speculate on re-executes under
// the sound analysis.
const maxRefinements = 2

// maxGenerations bounds the refined generations one optimistic detector
// keeps (see generations): the generations of one full chain. Every
// rolled-back workload measured refutes one fact chain over and over
// (perl: the same callee-set fact in all 40 of its seed-1 rollbacks),
// so one generation serves all of its rollbacks.
const maxGenerations = maxRefinements

// optimistic is one generation of an optimistic detector, as the
// rollback chain drives it.
type optimistic[R Report] interface {
	// try runs e once under the generation's speculative plan: a clean
	// run's report, or the outcome of a run that mis-speculated (its
	// Violation says why). It releases the run's analysis state before
	// it returns.
	try(e Execution, opts RunOptions) (R, *Outcome, error)
	// facts returns the generation's program and invariant database.
	facts() (*ir.Program, *invariants.DB)
	// refined returns the generation for db, a weakening of this one's
	// database: memoized (generations), built by the client's
	// constructor under the same static configuration, and sharing this
	// generation's sound fallback.
	refined(db *invariants.DB) (optimistic[R], error)
	// sound runs e under the traditional (sound) hybrid analysis, the
	// fallback every generation shares, built on first use.
	sound(e Execution, opts RunOptions) (R, error)
}

// speculate is the pipeline every optimistic client shares (§2.3): try
// e under gen, and on a violation roll back and re-execute the same
// recorded execution. A refinable violation re-executes speculatively
// under the generation whose database the violated fact's kind rule
// weakens (Violation.Refine); after maxRefinements such generations, on
// a violation with no rule, or on a rule that changes nothing, the run
// re-executes under the traditional hybrid analysis (gen's sound).
// Either way the result equals the sound one, and it is charged every
// aborted attempt's work.
func speculate[R Report](gen optimistic[R], e Execution, opts RunOptions) (R, error) {
	root := gen
	var chain Outcome // the aborted attempts
	for gen != nil {
		rep, aborted, err := gen.try(e, opts)
		if err != nil {
			return rep, err
		}
		if aborted == nil {
			if chain.RolledBack {
				rep.Base().chargeChain(&chain, RollbackRefined)
			}
			return rep, nil
		}
		chain.Stats.Add(aborted.Stats)
		chain.IC.Add(aborted.IC)
		chain.CheckEvents += aborted.CheckEvents
		chain.RolledBack = true
		chain.Refuted = append(chain.Refuted, aborted.Violation)
		if gen, err = next(gen, aborted.Violation, len(chain.Refuted)); err != nil {
			return rep, err
		}
	}
	rep, err := root.sound(e, opts)
	if err != nil {
		return rep, fmt.Errorf("core: rollback re-execution failed: %w", err)
	}
	rep.Base().chargeChain(&chain, RollbackSound)
	return rep, nil
}

// next returns the generation that re-executes a run gen mis-speculated
// on with v, the chain's n-th refuted fact, or nil for the sound
// analysis.
func next[R Report](gen optimistic[R], v Violation, n int) (optimistic[R], error) {
	if n > maxRefinements || !v.Kind.Refinable() {
		return nil, nil
	}
	prog, db := gen.facts()
	db = db.Clone()
	if !v.Refine(prog, db) {
		return nil, nil
	}
	g, err := gen.refined(db)
	if err != nil {
		return nil, fmt.Errorf("core: refining %s: %w", v.FactKey(), err)
	}
	return g, nil
}

// chargeChain makes o, the outcome of the re-execution to, the result
// of the rolled-back run whose aborted attempts chain sums.
func (o *Outcome) chargeChain(chain *Outcome, to RollbackTarget) {
	o.Stats.Add(chain.Stats)
	o.IC.Add(chain.IC)
	o.CheckEvents += chain.CheckEvents
	o.RolledBack = true
	o.RolledBackTo = to
	o.Violation = chain.Refuted[0]
	o.Refuted = chain.Refuted
}

// attempt runs e under p with tracer, a client's tracer over the run's
// checker, polling the abort flag the checker raises. A clean run
// returns report's result. A run that mis-speculated returns its
// outcome instead, whose Violation is the first violation the checker
// raised, or suspect's verdict on a completed run (when non-nil, it
// names the reason a clean-looking run still needs re-execution; zero:
// it does not). Both carry the checker's CheckEvents.
//
// The callbacks are parameters rather than struct fields so that they
// stay on the stack: escape analysis does not track struct fields
// apart, and the tracer escapes into the interpreter.
func attempt[R Report](p *plan, tracer interp.Tracer, check *checkState, e Execution, opts RunOptions,
	report func(*interp.Result) R, suspect func() Violation) (R, *Outcome, error) {
	var rep R
	res, err := p.run(e, tracer, check.abort, opts)
	var reason Violation
	switch {
	case errors.Is(err, interp.ErrAborted):
		reason = check.first
		if reason.None() {
			// The abort came from outside the checker: the slicer's
			// trace-node limit.
			reason = Violation{Kind: ViolationTraceLimit, Site: -1, Callee: -1, Detail: check.abort.Reason()}
		}
	case err != nil:
		return rep, nil, err
	case suspect != nil:
		reason = suspect()
	}
	if !reason.None() {
		out := outcomeOf(res)
		out.Violation = reason
		out.CheckEvents = check.Events
		return rep, &out, nil
	}
	rep = report(res)
	rep.Base().CheckEvents = check.Events
	return rep, nil, nil
}

// generations memoizes the refined generations of one optimistic
// detector by refined-database digest, and holds their shared sound
// fallback (S). The detector and every generation refined from it share
// one, so each refined database is built once however it is reached,
// by however many concurrent runs. It keeps at most maxGenerations,
// evicting the least recently used: an evicted generation is rebuilt on
// its next use (through the artifact cache, when there is one), so
// eviction changes no result. The sound fallback is built the first
// time a rollback chain falls through to it, and then kept.
type generations[D, S any] struct {
	mu    sync.Mutex
	list  []*refinedGen[D] // least recently used first
	sound lazy[S]
}

// newGenerations returns an empty memo whose sound fallback build
// constructs on first use.
func newGenerations[D, S any](build func() (S, error)) *generations[D, S] {
	return &generations[D, S]{sound: lazy[S]{build: build}}
}

// lazy is a value built on first use, once however many goroutines ask
// for it; a failed build's error is returned to every caller.
type lazy[T any] struct {
	once  sync.Once
	build func() (T, error)
	v     T
	err   error
}

func (l *lazy[T]) get() (T, error) {
	l.once.Do(func() { l.v, l.err = l.build() })
	return l.v, l.err
}

// refinedGen is one memoized generation (or its construction error).
type refinedGen[D any] struct {
	digest string
	once   sync.Once
	det    D
	err    error
	ok     atomic.Bool // det is built
}

// get returns the generation for db, building it with build on first
// use.
func (g *generations[D, S]) get(db *invariants.DB, build func() (D, error)) (D, error) {
	digest := db.Digest()
	g.mu.Lock()
	var r *refinedGen[D]
	if i := slices.IndexFunc(g.list, func(r *refinedGen[D]) bool { return r.digest == digest }); i >= 0 {
		r = g.list[i]
		g.list = slices.Delete(g.list, i, i+1)
	} else {
		r = &refinedGen[D]{digest: digest}
		if len(g.list) == maxGenerations {
			g.list = slices.Delete(g.list, 0, 1)
		}
	}
	g.list = append(g.list, r)
	g.mu.Unlock()
	r.once.Do(func() {
		r.det, r.err = build()
		r.ok.Store(r.err == nil)
	})
	return r.det, r.err
}

// lookup returns the generation for db if one is built, building
// nothing.
func (g *generations[D, S]) lookup(db *invariants.DB) (D, bool) {
	digest := db.Digest()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.list {
		if r.digest == digest && r.ok.Load() {
			return r.det, true
		}
	}
	var zero D
	return zero, false
}

// Memoized returns the refined generation det's rollback chain has
// already built for db, if det is an optimistic detector that still
// holds one. The adaptive manager deploys it for its own generation of
// db instead of building a second detector for the same database.
func Memoized[D Detector[R], R Report](det D, db *invariants.DB) (D, bool) {
	if m, ok := any(det).(interface {
		memoized(*invariants.DB) (D, bool)
	}); ok {
		return m.memoized(db)
	}
	var zero D
	return zero, false
}
