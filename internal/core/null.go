package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"

	"oha/internal/bitset"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/nullcheck"
	"oha/internal/vc"
)

// NullReport is the result of one null/misuse-checking run. The
// analysis verdict is the set of dereference sites observed accessing
// address 0 (each recovered deterministically by the interpreter's
// residual-check machinery: a nil load produces 0, a nil store is
// dropped).
type NullReport struct {
	// NilSites are the deref sites (instruction IDs, sorted) that
	// observed a nil address — the canonical verdict differently-
	// instrumented configurations must agree on.
	NilSites []int
	// NilDerefs is the total number of nil dereferences observed.
	NilDerefs uint64
	// CheckedDerefs counts residual dynamic checks executed
	// (interp.Stats.NullChecks) — the work the static phase could not
	// elide.
	CheckedDerefs uint64
	// DischargedChecks / DerefSites describe the static phase: how many
	// of the program's deref sites run with no dynamic check.
	DischargedChecks int
	DerefSites       int
	Outcome
}

// SameNullVerdicts reports whether two runs of one Execution observed
// nil dereferences at exactly the same sites.
func SameNullVerdicts(a, b *NullReport) bool { return slices.Equal(a.NilSites, b.NilSites) }

// nilLog accumulates the nil-deref verdict of one run. It is the sound
// configurations' tracer: they only collect the verdict.
type nilLog struct {
	interp.NopTracer
	sites map[int]uint64
	total uint64
}

// NilDeref records the verdict at a residual check.
func (l *nilLog) NilDeref(_ vc.TID, in *ir.Instr) {
	if l.sites == nil {
		l.sites = map[int]uint64{}
	}
	l.sites[in.ID]++
	l.total++
}

func (l *nilLog) sorted() []int {
	if len(l.sites) == 0 {
		return nil
	}
	out := make([]int, 0, len(l.sites))
	for id := range l.sites {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// optNullTracer is the speculative run's tracer: the run's invariant
// checker plus the verdict's nil log.
type optNullTracer struct {
	*checker
	log nilLog
}

// FastState implements interp.FastTracer: the checker's Load handler
// on a non-zero value is exactly Events++ (the non-null violation can
// only fire on 0), so the engine settles non-nil fact loads inline,
// crediting the check through Checks. Zero values still call through
// and raise the violation as before.
func (o *optNullTracer) FastState() *interp.FastState {
	return &interp.FastState{Kind: interp.FastNull, Checks: &o.Events}
}

// NilDeref records the verdict at a residual check, then checks it.
func (o *optNullTracer) NilDeref(t vc.TID, in *ir.Instr) {
	o.log.NilDeref(t, in)
	o.checker.NilDeref(t, in)
}

// portableNullProof is the gob image of a nullcheck.Result (IDs only,
// so it participates in the on-disk artifact tier).
type portableNullProof struct {
	Discharged []int
	UsedFacts  []int
	DerefSites int
}

// nullProofCodec persists null-proof artifacts against one program.
type nullProofCodec struct{ prog *ir.Program }

func (c nullProofCodec) Marshal(v any) ([]byte, error) {
	res := v.(*nullcheck.Result)
	p := portableNullProof{
		Discharged: res.Discharged.Slice(),
		UsedFacts:  res.UsedFacts.Slice(),
		DerefSites: res.DerefSites,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c nullProofCodec) Unmarshal(data []byte) (any, error) {
	var p portableNullProof
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, err
	}
	res := &nullcheck.Result{Discharged: &bitset.Set{}, UsedFacts: &bitset.Set{}, DerefSites: p.DerefSites}
	for _, id := range p.Discharged {
		if id < 0 || id >= len(c.prog.Instrs) {
			return nil, fmt.Errorf("core: cached null proof site %d out of range", id)
		}
		res.Discharged.Add(id)
	}
	for _, id := range p.UsedFacts {
		if id < 0 || id >= len(c.prog.Instrs) {
			return nil, fmt.Errorf("core: cached null proof fact %d out of range", id)
		}
		res.UsedFacts.Add(id)
	}
	return res, nil
}

// nullProofFor returns the (memoized) static non-nullness proof for
// one (program, database) pair. The points-to stage is shared with the
// race pipeline through its own memo key, so one solve serves both
// clients.
func nullProofFor(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (*nullcheck.Result, error) {
	keys := StaticKeysOf(prog, db)
	v, err := cfg.Cache.Memo(keys.NullProof, nullProofCodec{prog: prog}, func() (any, error) {
		pt, err := pointsToCI(prog, db, keys, cfg)
		if err != nil {
			return nil, err
		}
		return nullcheck.Analyze(prog, pt, db), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*nullcheck.Result), nil
}

// fullNullMask marks every load/store site (the always-check
// configuration).
func fullNullMask(prog *ir.Program) []bool {
	mask := make([]bool, len(prog.Instrs))
	for _, in := range prog.Instrs {
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			mask[in.ID] = true
		}
	}
	return mask
}

// residualNullMask marks the deref sites whose checks the static proof
// did NOT discharge.
func residualNullMask(prog *ir.Program, res *nullcheck.Result) []bool {
	mask := fullNullMask(prog)
	res.Discharged.ForEach(func(id int) bool {
		mask[id] = false
		return true
	})
	return mask
}

// soundNullMasks check the sites in null and deliver no other event:
// the configurations that only collect the verdict.
func soundNullMasks(prog *ir.Program, null []bool) interp.Masks {
	return interp.Masks{
		Mem:   make([]bool, len(prog.Instrs)),
		Sync:  make([]bool, len(prog.Instrs)),
		Block: make([]bool, len(prog.Blocks)),
		Null:  null,
	}
}

// nullReport assembles the common report fields of one run.
func nullReport(log *nilLog, res *interp.Result, proof *nullcheck.Result) *NullReport {
	return &NullReport{
		NilSites:         log.sorted(),
		NilDerefs:        log.total,
		CheckedDerefs:    res.Stats.NullChecks,
		DischargedChecks: proof.Discharged.Len(),
		DerefSites:       proof.DerefSites,
		Outcome:          outcomeOf(res),
	}
}

// RunNullAlways executes with a dynamic null check at every deref site
// and no static analysis — the unoptimized baseline the discharge
// ratio is measured against.
func RunNullAlways(prog *ir.Program, e Execution, opts RunOptions) (*NullReport, error) {
	none := &nullcheck.Result{Discharged: &bitset.Set{}, UsedFacts: &bitset.Set{}, DerefSites: countDerefSites(prog)}
	return (&plan{prog: prog, masks: soundNullMasks(prog, fullNullMask(prog))}).observeNulls(e, opts, none)
}

// observeNulls runs e under p, only collecting the verdict; proof is
// the static proof p's masks come from.
func (p *plan) observeNulls(e Execution, opts RunOptions, proof *nullcheck.Result) (*NullReport, error) {
	log := &nilLog{}
	res, err := p.run(e, log, nil, opts)
	if err != nil {
		return nil, err
	}
	return nullReport(log, res, proof), nil
}

func countDerefSites(prog *ir.Program) int {
	n := 0
	for _, in := range prog.Instrs {
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			n++
		}
	}
	return n
}

// HybridNull is the traditional hybrid baseline: dynamic null checks
// minus those the SOUND static non-nullness analysis discharges. It
// assumes no invariants, so it never rolls back — it is the sound
// rollback target.
type HybridNull struct {
	Prog   *ir.Program
	Static *nullcheck.Result

	plan *plan
}

// NewHybridNull runs the sound static non-nullness analysis.
func NewHybridNull(prog *ir.Program, cfg StaticConfig) (*HybridNull, error) {
	proof, err := nullProofFor(prog, nil, cfg)
	if err != nil {
		return nil, err
	}
	// The sound image assumes no invariants: no IC seeds (nil db).
	p := compiledCode(prog, soundNullMasks(prog, residualNullMask(prog, proof)), compileOpts(nil, cfg), cfg.Cache)
	return &HybridNull{Prog: prog, Static: proof, plan: p}, nil
}

// Run performs one sound hybrid null-checking run of e.
func (h *HybridNull) Run(e Execution, opts RunOptions) (*NullReport, error) {
	return h.plan.observeNulls(e, opts, h.Static)
}

// OptNull is the optimistic hybrid null checker: dynamic checks minus
// those the PREDICATED static analysis discharges, run speculatively
// with invariant checks and rollback to a refined generation or the
// traditional hybrid configuration on mis-speculation.
type OptNull struct {
	Prog *ir.Program
	DB   *invariants.DB
	// Pred is the predicated static proof.
	Pred *nullcheck.Result

	plan   *plan
	checks *checks
	static StaticConfig
	gens   *generations[*OptNull, *HybridNull]
}

// NewOptNull runs the predicated static analysis and prepares masks;
// the sound analysis, the rollback target, is built the first time a
// run falls through to it. Masks are private to the
// returned instance; the static proofs are shared through cfg.Cache
// and must not be mutated. With a warm cache — in particular one a
// race detector for the same database already filled — the points-to
// stage is served, not solved.
func NewOptNull(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (*OptNull, error) {
	return newOptNull(prog, db, cfg, newGenerations[*OptNull](func() (*HybridNull, error) { return NewHybridNull(prog, cfg) }))
}

// newOptNull builds the OptNull for db, sharing gens (and its sound
// fallback) with the generations it is refined from.
func newOptNull(prog *ir.Program, db *invariants.DB, cfg StaticConfig, gens *generations[*OptNull, *HybridNull]) (*OptNull, error) {
	proof, err := nullProofFor(prog, db, cfg)
	if err != nil {
		return nil, err
	}
	// The kinds the predicated proof reads (TestChecksCoverReads): the
	// speculative run observes exactly the used facts' loads and the
	// likely-unreachable blocks.
	checks := newChecks(prog, db, proof.UsedFacts, ViolationUnreachableBlock, ViolationCalleeSet, ViolationNonNull)
	m := interp.Masks{
		Mem:   checks.nonNull,
		Sync:  make([]bool, len(prog.Instrs)),
		Block: checks.luc,
		Null:  residualNullMask(prog, proof),
	}
	// The speculative image is IC-seeded from the likely callee sets
	// (the null proof's points-to is predicated on them, and the
	// checker verifies them at runtime).
	p := compiledCode(prog, m, compileOpts(db, cfg), cfg.Cache)
	return &OptNull{Prog: prog, DB: db, Pred: proof, plan: p, checks: checks, static: cfg, gens: gens}, nil
}

// CodeDigest returns the content digest of the speculative run's
// compiled configuration (see OptFT.CodeDigest). Refining a
// non-null-load fact changes the residual mask and so the digest.
func (o *OptNull) CodeDigest() string { return o.plan.code.ConfigDigest() }

// ElidedChecks returns how many deref sites the predicated analysis
// lets OptNull run without a dynamic check — the analog of
// OptFT.ElidedAccesses.
func (o *OptNull) ElidedChecks() int { return o.Pred.Discharged.Len() }

// DischargeRatio is the fraction of deref sites statically discharged.
func (o *OptNull) DischargeRatio() float64 { return o.Pred.DischargeRatio() }

// Run performs one speculative null-checking run of e, rolling back to
// a refined generation or the traditional hybrid configuration on
// invariant violation (speculate).
func (o *OptNull) Run(e Execution, opts RunOptions) (*NullReport, error) {
	return speculate(o, e, opts)
}

func (o *OptNull) try(e Execution, opts RunOptions) (*NullReport, *Outcome, error) {
	tr := &optNullTracer{checker: o.checks.newChecker()}
	report := func(res *interp.Result) *NullReport { return nullReport(&tr.log, res, o.Pred) }
	return attempt(o.plan, tr, &tr.checkState, e, opts, report, nil)
}

func (o *OptNull) facts() (*ir.Program, *invariants.DB) { return o.Prog, o.DB }

func (o *OptNull) refined(db *invariants.DB) (optimistic[*NullReport], error) {
	return o.gens.get(db, func() (*OptNull, error) { return newOptNull(o.Prog, db, o.static, o.gens) })
}

func (o *OptNull) sound(e Execution, opts RunOptions) (*NullReport, error) {
	h, err := o.gens.sound.get()
	if err != nil {
		return nil, err
	}
	return h.Run(e, opts)
}

func (o *OptNull) memoized(db *invariants.DB) (*OptNull, bool) { return o.gens.lookup(db) }
