package core

import (
	"fmt"
	"strconv"
	"strings"

	"oha/internal/invariants"
	"oha/internal/ir"
)

// ViolationKind names one checkable likely-invariant kind (or an
// auxiliary rollback cause). The values are stable wire/ledger
// identifiers: the adaptive speculation manager keys its violation
// counters on them, and the daemon exposes them as metric labels. The
// kind alone decides how a violation refines the invariant database
// (Refinable, Violation.Refine, Violation.FactKey), whichever client
// raised it.
type ViolationKind string

// Violation kinds.
const (
	// ViolationNone is the zero kind: no violation occurred.
	ViolationNone ViolationKind = ""
	// ViolationUnreachableBlock: a likely-unreachable block was
	// entered (OptFT §4.2.1, OptSlice §5.2.1). Site is the block ID.
	ViolationUnreachableBlock ViolationKind = "unreachable-block"
	// ViolationSingletonSpawn: a likely-singleton spawn site spawned a
	// second thread (§4.2.3). Site is the spawn instruction ID.
	ViolationSingletonSpawn ViolationKind = "singleton-spawn"
	// ViolationGuardingLock: a likely-guarding-lock group locked more
	// than one dynamic object (§4.2.2). Site is the lock instruction
	// ID at which the second object appeared.
	ViolationGuardingLock ViolationKind = "guarding-lock"
	// ViolationCalleeSet: an indirect call or spawn reached a function
	// outside its profiled callee set (§5.2.2). Site is the call
	// instruction ID; Callee the observed function ID.
	ViolationCalleeSet ViolationKind = "callee-set"
	// ViolationCallContext: a call context outside the profiled set
	// was entered (§5.2.3). Site is the extending call-site ID; Path
	// the full unprofiled context path.
	ViolationCallContext ViolationKind = "call-context"
	// ViolationElidedLockRace: a race was reported while lock
	// instrumentation was elided — a potential mis-speculation of the
	// no-custom-synchronization invariant (§4.2.4). Site is -1.
	ViolationElidedLockRace ViolationKind = "elided-lock-race"
	// ViolationNonNull: a load site covered by a likely-non-null-loads
	// fact produced 0 (the OptNull client). Site is the load
	// instruction ID.
	ViolationNonNull ViolationKind = "non-null-load"
	// ViolationTraceLimit: the dynamic slicer's trace outgrew its node
	// budget. Not an invariant violation — nothing to refine — but it
	// rolls back like one, so reports carry it uniformly. Site is -1.
	ViolationTraceLimit ViolationKind = "trace-limit"
)

// Refinable reports whether k refutes an invariant fact the rollback
// chain and the adaptive manager can remove. The zero kind and the
// trace limit (like any unknown kind) roll back to the sound analysis
// and refine nothing.
func (k ViolationKind) Refinable() bool {
	switch k {
	case ViolationUnreachableBlock, ViolationSingletonSpawn, ViolationGuardingLock,
		ViolationElidedLockRace, ViolationCalleeSet, ViolationCallContext, ViolationNonNull:
		return true
	}
	return false
}

// Violation is a structured mis-speculation reason. The zero value
// means "no violation"; RolledBack reports carry the first violation
// the speculative run raised (first-wins, matching interp.Abort).
//
// Downstream consumers — the adaptive speculation manager's ledger,
// the daemon's /speculation endpoint — operate on these fields and
// never parse the display string.
type Violation struct {
	// Kind is the violated invariant kind.
	Kind ViolationKind `json:"kind"`
	// Site identifies the violating program point: a block ID for
	// ViolationUnreachableBlock, an instruction ID otherwise, and -1
	// when no single site applies.
	Site int `json:"site"`
	// Callee is the observed out-of-set function ID for
	// ViolationCalleeSet (-1 otherwise).
	Callee int `json:"callee,omitempty"`
	// Path is the unprofiled context path (call-site instruction IDs
	// from the thread root) for ViolationCallContext.
	Path []int `json:"path,omitempty"`
	// Detail is extra display context (e.g. the callee name).
	Detail string `json:"detail,omitempty"`
}

// None reports whether v is the zero "no violation" value.
func (v Violation) None() bool { return v.Kind == ViolationNone }

// String renders the violation for display, matching the prose the
// rollback paths historically reported.
func (v Violation) String() string {
	switch v.Kind {
	case ViolationNone:
		return ""
	case ViolationUnreachableBlock:
		return fmt.Sprintf("likely-unreachable block %d entered", v.Site)
	case ViolationSingletonSpawn:
		return fmt.Sprintf("singleton spawn site %d spawned twice", v.Site)
	case ViolationGuardingLock:
		return fmt.Sprintf("guarding-lock invariant violated at site %d", v.Site)
	case ViolationCalleeSet:
		if v.Detail != "" {
			return fmt.Sprintf("callee-set invariant violated at site %d (callee %s)", v.Site, v.Detail)
		}
		return fmt.Sprintf("callee-set invariant violated at site %d", v.Site)
	case ViolationCallContext:
		return fmt.Sprintf("unused-call-context invariant violated at site %d", v.Site)
	case ViolationElidedLockRace:
		return "race reported with elided lock instrumentation"
	case ViolationNonNull:
		return fmt.Sprintf("non-null-load invariant violated at site %d", v.Site)
	case ViolationTraceLimit:
		if v.Detail != "" {
			return "trace limit: " + v.Detail
		}
		return "trace limit exceeded"
	}
	var b strings.Builder
	b.WriteString(string(v.Kind))
	if v.Site >= 0 {
		fmt.Fprintf(&b, " at site %d", v.Site)
	}
	if v.Detail != "" {
		b.WriteString(": " + v.Detail)
	}
	return b.String()
}

// Refine weakens db, a database of prog, by the fact v refutes, using
// the invariant package's merge-respecting weaken helpers: the result
// is what profiling would have produced had it also observed the
// violating execution. Reports whether db changed (false: the fact was
// already absent, or v's kind is not Refinable).
//
// A callee-set violation also marks the callee's entry block visited:
// the violating execution enters that block on its next step, so a
// database that still assumed it unreachable would be refuted by the
// same run.
func (v Violation) Refine(prog *ir.Program, db *invariants.DB) bool {
	switch v.Kind {
	case ViolationUnreachableBlock:
		return db.MarkVisited(v.Site)
	case ViolationSingletonSpawn:
		return db.RetractSingletonSpawn(v.Site)
	case ViolationGuardingLock:
		return db.DropMustAliasGroup(v.Site) > 0
	case ViolationElidedLockRace:
		return db.ClearElidableLocks()
	case ViolationCalleeSet:
		widened := db.WidenCallees(v.Site, v.Callee)
		entered := v.Callee >= 0 && v.Callee < len(prog.Funcs) && db.MarkVisited(prog.Funcs[v.Callee].Entry.ID)
		return widened || entered
	case ViolationCallContext:
		return db.AddContext(v.Path)
	case ViolationNonNull:
		return db.RetractNonNullLoad(v.Site)
	}
	return false
}

// FactKey fingerprints the invariant fact v refutes: kind@site, plus
// ">callee" for a callee-set violation and "/s1/s2/…" (the context
// path) for a call-context one. Job results list a rolled-back run's
// refuted facts by it, so the format is stable. Distinct dynamic
// observations of one fact collapse to one key.
func (v Violation) FactKey() string {
	var b strings.Builder
	b.WriteString(string(v.Kind))
	b.WriteByte('@')
	b.WriteString(strconv.Itoa(v.Site))
	switch v.Kind {
	case ViolationCalleeSet:
		b.WriteByte('>')
		b.WriteString(strconv.Itoa(v.Callee))
	case ViolationCallContext:
		for _, s := range v.Path {
			b.WriteByte('/')
			b.WriteString(strconv.Itoa(s))
		}
	}
	return b.String()
}
