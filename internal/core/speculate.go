package core

import (
	"errors"
	"fmt"

	"oha/internal/interp"
)

// Outcome is the part of a report the speculative pipeline owns. Every
// client's report embeds it, so its fields read (and encode) as the
// report's own.
type Outcome struct {
	// Stats are the interpreter's event counts for the run. For a
	// rolled-back run they include the aborted speculative execution.
	Stats interp.Stats
	// CheckEvents counts invariant-check events (optimistic runs).
	CheckEvents uint64
	// RolledBack reports that the speculative run mis-speculated and
	// the results come from the traditional hybrid re-execution.
	RolledBack bool
	// Violation is the structured mis-speculation reason when
	// RolledBack (the first violation the speculative run raised).
	Violation Violation
	// Output is the analyzed program's output.
	Output []int64
	// IC reports the compiled engine's speculative-dispatch activity
	// (inline-cache hits/misses/deopts, fused superinstructions). For a
	// rolled-back run it includes the aborted speculative execution's
	// counts. Zero under the tree-walking engine.
	IC interp.ICStats
}

// Base returns the outcome itself; through embedding it gives generic
// code (the rollback path, the adaptive retry loop) a report's shared
// fields.
func (o *Outcome) Base() *Outcome { return o }

// outcomeOf starts the outcome of a completed run.
func outcomeOf(res *interp.Result) Outcome {
	return Outcome{Stats: res.Stats, Output: res.Output, IC: res.IC}
}

// Report is implemented by every client's report through its embedded
// Outcome.
type Report interface{ Base() *Outcome }

// checkState is the verdict every invariant checker keeps: the abort
// flag it raises, the first violation in structured form, and the
// count of check events.
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

// speculate is the pipeline every optimistic client shares (§2.3): run
// p — the predicated plan — with tracer, the client's fused tracer,
// polling the abort flag its checker raises, and on a violation roll
// back and re-execute the same recorded execution under the sound
// hybrid analysis, charging the aborted work to the result. report
// builds a clean run's result; suspect, when non-nil, names the reason
// a clean run's result still needs the sound re-execution (zero: it
// does not).
//
// The callbacks are parameters rather than struct fields so that they
// stay on the stack: escape analysis does not track struct fields
// apart, and the tracer escapes into the interpreter.
func speculate[R Report](p *plan, tracer interp.Tracer, check *checkState, e Execution, opts RunOptions,
	report func(*interp.Result) R, suspect func() Violation, sound func(Execution, RunOptions) (R, error)) (R, error) {
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
		return rep, err
	case suspect != nil:
		reason = suspect()
	}
	if reason.None() {
		rep = report(res)
	} else {
		if rep, err = sound(e, opts); err != nil {
			return rep, fmt.Errorf("core: rollback re-execution failed: %w", err)
		}
		out := rep.Base()
		out.RolledBack = true
		out.Violation = reason
		out.Stats.Add(res.Stats)
		out.IC.Add(res.IC)
	}
	rep.Base().CheckEvents = check.Events
	return rep, nil
}
