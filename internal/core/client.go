package core

import (
	"sort"
	"strconv"
	"strings"

	"oha/internal/invariants"
	"oha/internal/ir"
)

// Client describes one analysis client of the optimistic hybrid core:
// a (profiling → predicated static analysis → speculative dynamic
// analysis) pipeline with its own violation kinds and refinement
// rules. The three paper clients — race detection (OptFT, §4),
// backward slicing (OptSlice, §5), and the null/misuse checker
// (OptNull) — are declared here, each with its typed entry point
// (Race, Slice, Null) next to its refinement rules; everything
// downstream of core (the adaptive speculation manager, the daemon's
// job kinds, the load generator, the CLI) discovers clients through
// this registry and runs them through their entry points instead of
// hard-coding the set, so adding a fourth client is: implement Client,
// register it, give it an entry point. See DESIGN §17.
type Client interface {
	// Name is the stable client identifier — the daemon job kind, the
	// metric label value, and the registry key ("race", "slice",
	// "nullcheck").
	Name() string
	// Kinds lists the violation kinds this client's runtime checker can
	// raise. Every refinable kind must be owned by exactly one client.
	Kinds() []ViolationKind
	// Refinable reports whether k refutes an invariant fact the
	// adaptive manager can remove. Auxiliary rollback causes (the trace
	// limit) roll back but refine nothing.
	Refinable(k ViolationKind) bool
	// Refine weakens db by the fact v refutes, using the invariant
	// package's merge-respecting weaken helpers. Reports whether db
	// changed (false: the fact was already absent).
	Refine(db *invariants.DB, v Violation) bool
	// FactKey fingerprints the invariant fact v refutes — the unit the
	// adaptive ledger counts toward its threshold. Distinct dynamic
	// observations of one fact collapse to one key.
	FactKey(v Violation) string
}

// clients is the process-wide registry, populated by init below (and
// extensible by out-of-tree clients before analysis starts).
var clients = map[string]Client{}

// RegisterClient adds a client to the registry; a duplicate name
// panics (client names are wire identifiers and must be unambiguous).
func RegisterClient(c Client) {
	if _, dup := clients[c.Name()]; dup {
		panic("core: duplicate client " + c.Name())
	}
	clients[c.Name()] = c
}

// ClientByName returns the registered client with the given name.
func ClientByName(name string) (Client, bool) {
	c, ok := clients[name]
	return c, ok
}

// Clients returns every registered client, sorted by name for
// deterministic iteration.
func Clients() []Client {
	out := make([]Client, 0, len(clients))
	for _, c := range clients {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ClientNames returns the sorted registered client names.
func ClientNames() []string {
	cs := Clients()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name()
	}
	return names
}

// ClientForViolation returns the client owning violation kind k. The
// shared kinds (unreachable-block is checked by every client) resolve
// to the first owner in name order; refinement semantics are identical
// across owners, so any owner's Refine applies.
func ClientForViolation(k ViolationKind) (Client, bool) {
	for _, c := range Clients() {
		for _, ck := range c.Kinds() {
			if ck == k {
				return c, true
			}
		}
	}
	return nil, false
}

// baseFactKey renders the kind@site prefix every client's fact keys
// share.
func baseFactKey(v Violation) string {
	return string(v.Kind) + "@" + strconv.Itoa(v.Site)
}

// refineShared handles the violation kinds whose refinement rules are
// shared across clients (the likely-unreachable-code invariant is
// assumed — and so refutable — by all three).
func refineShared(db *invariants.DB, v Violation) (bool, bool) {
	if v.Kind == ViolationUnreachableBlock {
		return db.MarkVisited(v.Site), true
	}
	return false, false
}

// Detector is one client's optimistic analysis: OptFT, OptSlice or
// OptNull.
type Detector[R Report] interface {
	Run(e Execution, opts RunOptions) (R, error)
	CodeDigest() string
}

// Analysis is one client's typed entry point, in the two shapes the
// paper runs every client in (§2.3): the optimistic analysis with
// rollback, built for an invariant database, and the unoptimized sound
// baseline it must agree with.
type Analysis[D Detector[R], R Report] struct {
	Client Client
	// Key identifies the detector among one database's detectors.
	Key string
	// Phase is the static phase Build is timed under ("": none).
	Phase string
	// Build constructs the optimistic detector for (prog, db).
	Build func(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (D, error)
	// Baseline runs the unoptimized sound analysis on e.
	Baseline func(prog *ir.Program, e Execution, opts RunOptions) (R, error)
}

// raceClient is the OptFT race-detection client (§4).
type raceClient struct{}

func (raceClient) Name() string { return "race" }

func (raceClient) Kinds() []ViolationKind {
	return []ViolationKind{
		ViolationUnreachableBlock,
		ViolationSingletonSpawn,
		ViolationGuardingLock,
		ViolationElidedLockRace,
	}
}

func (raceClient) Refinable(k ViolationKind) bool {
	switch k {
	case ViolationUnreachableBlock, ViolationSingletonSpawn,
		ViolationGuardingLock, ViolationElidedLockRace:
		return true
	}
	return false
}

func (raceClient) Refine(db *invariants.DB, v Violation) bool {
	if changed, ok := refineShared(db, v); ok {
		return changed
	}
	switch v.Kind {
	case ViolationSingletonSpawn:
		return db.RetractSingletonSpawn(v.Site)
	case ViolationGuardingLock:
		return db.DropMustAliasGroup(v.Site) > 0
	case ViolationElidedLockRace:
		return db.ClearElidableLocks()
	}
	return false
}

func (raceClient) FactKey(v Violation) string { return baseFactKey(v) }

// Race is the race-detection entry point: OptFT, with full FastTrack
// as its baseline.
func Race() Analysis[*OptFT, *RaceReport] {
	return Analysis[*OptFT, *RaceReport]{Client: raceClient{}, Key: "race", Build: NewOptFTStatic, Baseline: RunFastTrack}
}

// sliceClient is the OptSlice backward-slicing client (§5).
type sliceClient struct{}

func (sliceClient) Name() string { return "slice" }

func (sliceClient) Kinds() []ViolationKind {
	return []ViolationKind{
		ViolationUnreachableBlock,
		ViolationCalleeSet,
		ViolationCallContext,
		ViolationTraceLimit,
	}
}

func (sliceClient) Refinable(k ViolationKind) bool {
	switch k {
	case ViolationUnreachableBlock, ViolationCalleeSet, ViolationCallContext:
		return true
	}
	return false // the trace limit carries no refutable fact
}

func (sliceClient) Refine(db *invariants.DB, v Violation) bool {
	if changed, ok := refineShared(db, v); ok {
		return changed
	}
	switch v.Kind {
	case ViolationCalleeSet:
		return db.WidenCallees(v.Site, v.Callee)
	case ViolationCallContext:
		return db.AddContext(v.Path)
	}
	return false
}

func (sliceClient) FactKey(v Violation) string {
	var b strings.Builder
	b.WriteString(baseFactKey(v))
	if v.Kind == ViolationCalleeSet {
		b.WriteByte('>')
		b.WriteString(strconv.Itoa(v.Callee))
	}
	if v.Kind == ViolationCallContext {
		for _, s := range v.Path {
			b.WriteByte('/')
			b.WriteString(strconv.Itoa(s))
		}
	}
	return b.String()
}

// Slice is the backward-slicing entry point for one criterion and
// static budget: OptSlice, with full Giri (every instruction traced, the
// default trace limit) as its baseline.
func Slice(criterion *ir.Instr, budget int) Analysis[*OptSlice, *SliceReport] {
	return Analysis[*OptSlice, *SliceReport]{
		Client: sliceClient{},
		Key:    "slice/" + strconv.Itoa(criterion.ID) + "/" + strconv.Itoa(budget),
		Phase:  "slice",
		Build: func(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (*OptSlice, error) {
			return NewOptSliceStatic(prog, db, criterion, budget, cfg)
		},
		Baseline: func(prog *ir.Program, e Execution, opts RunOptions) (*SliceReport, error) {
			return RunFullGiri(prog, criterion, e, opts, 0)
		},
	}
}

// nullClient is the OptNull null/misuse-checking client. Its static
// proof is predicated on likely-non-null loads, likely-unreachable
// code, and (through the predicated points-to) likely callee sets, so
// its checker verifies all three.
type nullClient struct{}

func (nullClient) Name() string { return "nullcheck" }

func (nullClient) Kinds() []ViolationKind {
	return []ViolationKind{
		ViolationUnreachableBlock,
		ViolationCalleeSet,
		ViolationNonNull,
	}
}

func (nullClient) Refinable(k ViolationKind) bool {
	switch k {
	case ViolationUnreachableBlock, ViolationCalleeSet, ViolationNonNull:
		return true
	}
	return false
}

func (nullClient) Refine(db *invariants.DB, v Violation) bool {
	if changed, ok := refineShared(db, v); ok {
		return changed
	}
	switch v.Kind {
	case ViolationCalleeSet:
		return db.WidenCallees(v.Site, v.Callee)
	case ViolationNonNull:
		return db.RetractNonNullLoad(v.Site)
	}
	return false
}

func (nullClient) FactKey(v Violation) string {
	if v.Kind == ViolationCalleeSet {
		return baseFactKey(v) + ">" + strconv.Itoa(v.Callee)
	}
	return baseFactKey(v)
}

// Null is the null-checking entry point: OptNull, with a dynamic check
// at every dereference as its baseline.
func Null() Analysis[*OptNull, *NullReport] {
	return Analysis[*OptNull, *NullReport]{Client: nullClient{}, Key: "nullcheck", Phase: "nullproof", Build: NewOptNull, Baseline: RunNullAlways}
}

func init() {
	RegisterClient(raceClient{})
	RegisterClient(sliceClient{})
	RegisterClient(nullClient{})
}
