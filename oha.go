// Package oha is the public API of this reproduction of
// "Optimistic Hybrid Analysis: Accelerating Dynamic Analysis through
// Predicated Static Analysis" (Devecsery, Chen, Flinn, Narayanasamy;
// ASPLOS 2018).
//
// Optimistic hybrid analysis accelerates a dynamic analysis in three
// phases:
//
//  1. Profile a set of executions to learn likely invariants —
//     dynamically-observed facts (unreachable code, guarding locks,
//     singleton threads, callee sets, used call contexts) that hold in
//     most but not necessarily all executions.
//  2. Run a predicated static analysis that assumes those invariants,
//     making it far more precise (and scalable) than a sound static
//     analysis, and use it to elide dynamic-analysis instrumentation.
//  3. Run the dynamic analysis speculatively, verifying the assumed
//     invariants with cheap runtime checks; if one is violated, roll
//     the execution back and re-analyze it under the traditional
//     (soundly-optimized) hybrid analysis.
//
// The result is as sound and precise as the unoptimized dynamic
// analysis, but much faster in the common case.
//
// Three clients are provided: OptFT, an optimistic FastTrack
// data-race detector (the paper's §4); OptSlice, an optimistic dynamic
// backward slicer built on a Giri-style tracer (§5); and OptNull, an
// optimistic null/misuse checker that discharges pointer-dereference
// checks with a predicated non-nullness analysis. Programs
// under analysis are written in MiniLang, a small C-like language with
// pointers, heap allocation, function values, threads, and locks; the
// whole substrate (compiler, IR, deterministic interpreter, static
// analyses, dynamic analyses) lives under internal/ and is exercised
// through this package.
//
// # Quick start
//
//	prog := oha.MustCompile(src)
//	profile, _ := oha.Profile(prog, func(run int) oha.Execution {
//	    return oha.Execution{Inputs: inputsFor(run), Seed: uint64(run)}
//	}, 64)
//	det, _ := oha.NewRaceDetector(prog, profile.DB)
//	report, _ := det.Run(oha.Execution{Inputs: in, Seed: 1}, oha.RunOptions{})
//	for _, r := range report.Details { fmt.Println(r) }
package oha

import (
	"io"

	"oha/internal/adapt"
	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
)

// Program is a compiled MiniLang program in IR form.
type Program = ir.Program

// Instr is one IR instruction (used to name slice criteria).
type Instr = ir.Instr

// Execution identifies one concrete execution: inputs plus a schedule
// seed. The interpreter is deterministic, so an Execution can be
// re-analyzed exactly — the substrate for mis-speculation rollback.
type Execution = core.Execution

// RunOptions bounds executions (zero values select defaults).
type RunOptions = core.RunOptions

// EngineKind selects the execution engine for analyzed runs: the
// compiled bytecode engine with baked instrumentation masks (default)
// or the tree-walking reference engine. Both produce identical events,
// so every analysis result — including violation records — is
// engine-independent.
type EngineKind = interp.EngineKind

// Execution engines.
const (
	EngineCompiled = interp.EngineCompiled
	EngineTree     = interp.EngineTree
)

// Violation is the structured record of the first invariant check
// that failed in a rolled-back run.
type Violation = core.Violation

// ViolationKind names the violated invariant kind.
type ViolationKind = core.ViolationKind

// InvariantDB is a set of profiled likely invariants.
type InvariantDB = invariants.DB

// ProfileResult is the outcome of invariant profiling.
type ProfileResult = core.ProfileResult

// RaceReport is the result of one race-detection run.
type RaceReport = core.RaceReport

// SliceReport is the result of one dynamic-slicing run.
type SliceReport = core.SliceReport

// NullReport is the result of one null-checking run.
type NullReport = core.NullReport

// RaceDetector is OptFT: the optimistic hybrid FastTrack detector.
type RaceDetector = core.OptFT

// HybridRaceDetector is the traditional hybrid baseline (FastTrack
// optimized with the sound static race analysis).
type HybridRaceDetector = core.HybridFT

// Slicer is OptSlice: the optimistic hybrid backward slicer.
type Slicer = core.OptSlice

// HybridSlicer is the traditional hybrid slicing baseline.
type HybridSlicer = core.HybridSlicer

// NullChecker is OptNull: the optimistic hybrid null/misuse checker.
type NullChecker = core.OptNull

// HybridNullChecker is the traditional hybrid baseline (the always-
// check dynamic null checker optimized only with the sound, un-
// predicated non-nullness analysis).
type HybridNullChecker = core.HybridNull

// Compile parses and lowers MiniLang source into IR.
func Compile(src string) (*Program, error) { return lang.Compile(src) }

// MustCompile is Compile, panicking on error.
func MustCompile(src string) *Program { return lang.MustCompile(src) }

// Profile learns likely invariants from executions produced by gen,
// stopping when the invariant set stabilizes (or after maxRuns), then
// proposes the lock sites a race detector may elide (§4.2.4). The
// proposal is assumed like every likely invariant: a race reported
// while they are elided rolls the run back.
func Profile(prog *Program, gen func(run int) Execution, maxRuns int) (*ProfileResult, error) {
	return core.Profile(prog, gen, maxRuns)
}

// ProfileExecutions learns likely invariants from exactly the given
// executions.
func ProfileExecutions(prog *Program, execs []Execution) (*InvariantDB, error) {
	return core.ProfileN(prog, execs)
}

// SaveInvariants writes a profiled invariant database in the text
// format the paper's tools use between phases.
func SaveInvariants(w io.Writer, db *InvariantDB) error {
	_, err := db.WriteTo(w)
	return err
}

// LoadInvariants reads a previously saved invariant database.
func LoadInvariants(r io.Reader) (*InvariantDB, error) { return invariants.Parse(r) }

// ArtifactCache memoizes the portable static-analysis artifacts the
// pipeline derives (predicated/sound race analyses, static slices,
// per-run profile databases), content-addressed by program and
// invariant digests. One cache can back any number of detectors and
// slicers; `ohad` keeps one warm across jobs.
type ArtifactCache = artifacts.Cache

// NewArtifactCache returns an artifact cache. With a non-empty dir,
// artifacts also persist to disk (written atomically) and survive
// process restarts.
func NewArtifactCache(dir string) *ArtifactCache { return artifacts.New(dir) }

// ProfileCached is Profile backed by an artifact cache: per-run
// profile databases are memoized, so re-profiling the same program
// and execution set is nearly free.
func ProfileCached(prog *Program, gen func(run int) Execution, maxRuns int, cache *ArtifactCache) (*ProfileResult, error) {
	return core.ProfileWith(prog, gen, core.ProfileOptions{MaxRuns: maxRuns, Cache: cache})
}

// NewRaceDetector builds OptFT for a program and its profiled
// invariants: it runs the predicated static race analysis (for
// elision); the sound one, the rollback target, is built the first
// time a run falls through to it. Lock instrumentation is elided at
// the sites profiling proposed.
func NewRaceDetector(prog *Program, db *InvariantDB) (*RaceDetector, error) {
	return core.NewOptFT(prog, db)
}

// StaticConfig tunes the static-analysis pipeline: the artifact cache
// that memoizes both static analyses by (program, invariants) digest,
// the parallel solver worker count (0 = GOMAXPROCS, 1 = sequential),
// and the compiled engine's speculative dispatch lowerings (NoIC
// disables inline-cache seeding, NoFusion disables superinstruction
// fusion). Every configuration produces digest-identical results; only
// latency changes.
type StaticConfig = core.StaticConfig

// ICStats counts the compiled engine's speculative-dispatch events
// (inline-cache hits/misses/deopts and fused superinstruction
// executions) for one analyzed run; every report carries them. Purely diagnostic — never part of the analysis result.
type ICStats = interp.ICStats

// NewHybridRaceDetector builds the traditional hybrid baseline.
func NewHybridRaceDetector(prog *Program) (*HybridRaceDetector, error) {
	return core.NewHybridFT(prog, StaticConfig{Workers: 1})
}

// RunFastTrack runs the unoptimized FastTrack baseline on one
// execution.
func RunFastTrack(prog *Program, e Execution, opts RunOptions) (*RaceReport, error) {
	return core.RunFastTrack(prog, e, opts)
}

// NewSlicer builds OptSlice for one slice criterion. budget bounds the
// context-sensitive analysis (clones); when the predicated analysis
// does not fit, it falls back to a context-insensitive one, as does
// the sound fallback.
func NewSlicer(prog *Program, db *InvariantDB, criterion *Instr, budget int) (*Slicer, error) {
	return core.NewOptSlice(prog, db, criterion, budget)
}

// NewSlicerStatic is NewSlicer with an explicit static pipeline
// configuration.
func NewSlicerStatic(prog *Program, db *InvariantDB, criterion *Instr, budget int, cfg StaticConfig) (*Slicer, error) {
	return core.NewOptSliceStatic(prog, db, criterion, budget, cfg)
}

// NewHybridSlicer builds the traditional hybrid slicing baseline.
func NewHybridSlicer(prog *Program, criterion *Instr, budget int) (*HybridSlicer, error) {
	return core.NewHybridSlicer(prog, criterion, budget, StaticConfig{Workers: 1})
}

// NewNullChecker builds OptNull for a program and its profiled
// invariants: the predicated flow-sensitive non-nullness analysis
// discharges the dereference sites it proves never see nil, and only
// the residual sites keep dynamic checks (plus cheap fact checks that
// trigger rollback when a likely-non-null site observes nil).
func NewNullChecker(prog *Program, db *InvariantDB) (*NullChecker, error) {
	return core.NewOptNull(prog, db, StaticConfig{Workers: 1})
}

// NewNullCheckerStatic is NewNullChecker with an explicit static
// pipeline configuration.
func NewNullCheckerStatic(prog *Program, db *InvariantDB, cfg StaticConfig) (*NullChecker, error) {
	return core.NewOptNull(prog, db, cfg)
}

// NewHybridNullChecker builds the traditional hybrid null-checking
// baseline (sound static discharge only — no likely invariants, no
// rollback).
func NewHybridNullChecker(prog *Program) (*HybridNullChecker, error) {
	return core.NewHybridNull(prog, StaticConfig{Workers: 1})
}

// RunNullAlways runs the unoptimized baseline: every pointer
// dereference carries a dynamic null check.
func RunNullAlways(prog *Program, e Execution, opts RunOptions) (*NullReport, error) {
	return core.RunNullAlways(prog, e, opts)
}

// SameNullVerdicts reports whether two null reports agree on the
// analysis verdict (the set of dereference sites that observed nil).
func SameNullVerdicts(a, b *NullReport) bool {
	return core.SameNullVerdicts(a, b)
}

// RunFullGiri runs the unoptimized trace-everything dynamic slicer; it
// fails when the trace exceeds maxNodes (0 = a large default),
// reflecting that full tracing does not scale.
func RunFullGiri(prog *Program, criterion *Instr, e Execution, opts RunOptions, maxNodes int) (*SliceReport, error) {
	return core.RunFullGiri(prog, criterion, e, opts, maxNodes)
}

// Prints returns the program's print instructions in order — the usual
// pool of slice criteria.
func Prints(prog *Program) []*Instr { return core.Prints(prog) }

// RunDJIT runs the DJIT+-style full-vector-clock race detector — the
// ablation baseline FastTrack's epoch optimization is measured
// against. Reports are address-level only.
func RunDJIT(prog *Program, e Execution, opts RunOptions) (*RaceReport, error) {
	return core.RunDJIT(prog, e, opts)
}

// SpeculationManager closes the optimistic feedback loop for one
// (program, invariant DB) pair: it observes rollbacks, refines the
// refuted likely-invariant facts out of the database, and hot-swaps
// the refined generation in — so one mis-speculation never costs a
// second rollback. Use RunAdaptive to analyze an execution under it.
type SpeculationManager = adapt.Manager

// SpeculationOptions configures a SpeculationManager.
type SpeculationOptions = adapt.Options

// SpeculationStatus is a snapshot of a manager's ledger and history.
type SpeculationStatus = adapt.Status

// GenerationRecord describes one deployed refinement generation.
type GenerationRecord = adapt.GenerationRecord

// Outcome is the part of every report the speculative pipeline owns:
// event counts, check events, the rollback flag and violation, the
// program output and dispatch counters.
type Outcome = core.Outcome

// Report is implemented by RaceReport, SliceReport and NullReport
// through their embedded Outcome.
type Report = core.Report

// RunAdaptive runs the client c selects once on e under the manager's
// published generation and returns its report. A mis-speculated run
// re-executes under a database without the facts it refuted (the
// report says so: RolledBackTo, Refuted), and the manager publishes
// that database as its next generation, so the same execution runs
// clean from then on. Select the client with AdaptiveRace,
// AdaptiveSlice or AdaptiveNull.
func RunAdaptive[D core.Detector[R], R Report](m *SpeculationManager, c core.Analysis[D, R], e Execution, opts RunOptions) (R, error) {
	res, err := adapt.Run(m, c, e, opts)
	return res.Report, err
}

// AdaptiveRace selects OptFT for RunAdaptive.
func AdaptiveRace() core.Analysis[*RaceDetector, *RaceReport] { return core.Race() }

// AdaptiveSlice selects OptSlice for one criterion and budget.
func AdaptiveSlice(criterion *Instr, budget int) core.Analysis[*Slicer, *SliceReport] {
	return core.Slice(criterion, budget)
}

// AdaptiveNull selects OptNull for RunAdaptive.
func AdaptiveNull() core.Analysis[*NullChecker, *NullReport] { return core.Null() }

// NewSpeculationManager returns the adaptive manager for prog with
// base invariant database db (generation 1).
func NewSpeculationManager(prog *Program, db *InvariantDB, o SpeculationOptions) *SpeculationManager {
	return adapt.New(prog, db, o)
}
