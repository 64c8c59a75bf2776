package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"oha/internal/bitset"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
)

// kindRule is one violation kind's expected refinement rule, on a
// sample violation v: whether the kind is refinable (and so whether v
// refines factDB) and v's fact key.
type kindRule struct {
	name      string // the constant's identifier
	v         Violation
	refinable bool
	key       string
}

var kindRules = []kindRule{
	{"ViolationNone", Violation{Site: -1, Callee: -1}, false, "@-1"},
	{"ViolationUnreachableBlock", Violation{Kind: ViolationUnreachableBlock, Site: 7, Callee: -1}, true, "unreachable-block@7"},
	{"ViolationSingletonSpawn", Violation{Kind: ViolationSingletonSpawn, Site: 7, Callee: -1}, true, "singleton-spawn@7"},
	{"ViolationGuardingLock", Violation{Kind: ViolationGuardingLock, Site: 7, Callee: -1}, true, "guarding-lock@7"},
	{"ViolationCalleeSet", Violation{Kind: ViolationCalleeSet, Site: 7, Callee: 3, Detail: "c"}, true, "callee-set@7>3"},
	{"ViolationCallContext", Violation{Kind: ViolationCallContext, Site: 9, Callee: -1, Path: []int{7, 9}}, true, "call-context@9/7/9"},
	{"ViolationElidedLockRace", Violation{Kind: ViolationElidedLockRace, Site: -1, Callee: -1}, true, "elided-lock-race@-1"},
	{"ViolationNonNull", Violation{Kind: ViolationNonNull, Site: 7, Callee: -1}, true, "non-null-load@7"},
	{"ViolationTraceLimit", Violation{Kind: ViolationTraceLimit, Site: -1, Callee: -1, Detail: "1024 nodes"}, false, "trace-limit@-1"},
}

// factDB returns a database holding every fact a kindRules violation
// refutes: block 7 likely unreachable, spawn 7 likely singleton, lock
// sites 7 and 9 must-alias, lock 7 elidable, call site 7 with an empty
// callee set, the context 7 but not 7/9, and load 7 likely non-null.
func factDB() *invariants.DB {
	db := invariants.NewDB()
	db.SingletonSpawns.Add(7)
	db.MustAliasLocks[invariants.LockPair{A: 7, B: 9}] = true
	db.ElidableLocks.Add(7)
	db.Callees[7] = &bitset.Set{}
	db.AddContext([]int{7})
	db.NonNullLoads.Add(7)
	return db
}

// kindsSrc declares the functions kindRules' violations name (function
// 3 is c) and enough blocks and instructions for their sites.
const kindsSrc = `
	func a() { return 1; }
	func b() { return 2; }
	func main() { print(a() + b()); }
	func c() { return 3; }
	func d(n) {
		var i = 0;
		while (i < n) {
			if (i > 2) { i = i + 2; } else { i = i + 1; }
		}
		return i;
	}
`

// checkCases feed a run's checker the events that refute each
// refinable kind's sample fact in kindRules, given factDB and the used
// non-null fact at load 7. An elided-lock race has no case: OptFT
// checks for it once a run completes.
var checkCases = map[ViolationKind]func(c *checker, prog *ir.Program){
	ViolationUnreachableBlock: func(c *checker, _ *ir.Program) { c.BlockEnter(0, &ir.Block{ID: 7}) },
	ViolationSingletonSpawn: func(c *checker, prog *ir.Program) {
		spawn := &ir.Instr{ID: 7, Op: ir.OpSpawn, Callee: prog.Funcs[0]}
		c.Spawn(0, spawn, 1, 1, prog.Funcs[0])
		c.Spawn(0, spawn, 2, 2, prog.Funcs[0])
	},
	ViolationGuardingLock: func(c *checker, _ *ir.Program) {
		c.Lock(0, &ir.Instr{ID: 9, Op: ir.OpLock}, 100)
		c.Lock(0, &ir.Instr{ID: 7, Op: ir.OpLock}, 200)
	},
	ViolationCalleeSet: func(c *checker, prog *ir.Program) {
		c.Call(0, &ir.Instr{ID: 7, Op: ir.OpCall}, prog.Funcs[3], 0, 1)
	},
	ViolationCallContext: func(c *checker, prog *ir.Program) {
		c.Call(0, &ir.Instr{ID: 7, Op: ir.OpCall, Callee: prog.Funcs[0]}, prog.Funcs[0], 0, 1)
		c.Call(0, &ir.Instr{ID: 9, Op: ir.OpCall, Callee: prog.Funcs[1]}, prog.Funcs[1], 1, 2)
	},
	ViolationNonNull: func(c *checker, _ *ir.Program) { c.Load(0, &ir.Instr{ID: 7, Op: ir.OpLoad}, 64, 0) },
}

// TestViolationKindRules pins each kind's refinement rule: which kinds
// refine, the fact-key format (refined databases are cached under these
// keys, so it must not drift), and that Refine removes the refuted fact
// exactly once. Refining a callee-set fact also marks the callee's
// entry block visited. Every refinable kind but an elided-lock race
// also has a check case: a checker with that kind's table raises the
// very violation whose rule removes the fact, and one without it
// raises nothing.
func TestViolationKindRules(t *testing.T) {
	prog := lang.MustCompile(kindsSrc)
	if len(prog.Funcs) < 4 || len(prog.Blocks) <= 7 || len(prog.Instrs) <= 9 {
		t.Fatalf("kindsSrc has %d functions, %d blocks and %d instructions, want function 3, block 7 and instruction 9",
			len(prog.Funcs), len(prog.Blocks), len(prog.Instrs))
	}
	if got, want := ruleNames(), violationKindConsts(t); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("rule table covers %v, want every ViolationKind constant %v", got, want)
	}
	var reads []ViolationKind
	for _, r := range kindRules {
		if r.refinable {
			reads = append(reads, r.v.Kind)
		}
	}
	used := &bitset.Set{}
	used.Add(7)
	for _, r := range kindRules {
		check, ok := checkCases[r.v.Kind]
		if ok != (r.refinable && r.v.Kind != ViolationElidedLockRace) {
			t.Errorf("%s: has a check case = %v, want %v", r.name, ok, !ok)
		}
		if !ok {
			continue
		}
		c := newChecks(prog, factDB(), used, reads...).newChecker()
		check(c, prog)
		if !reflect.DeepEqual(c.first, r.v) {
			t.Errorf("%s: check raised %+v, want %+v", r.name, c.first, r.v)
		}
		without := slices.DeleteFunc(slices.Clone(reads), func(k ViolationKind) bool { return k == r.v.Kind })
		c = newChecks(prog, factDB(), used, without...).newChecker()
		if check(c, prog); !c.first.None() {
			t.Errorf("%s: a checker without its table raised %+v", r.name, c.first)
		}
	}
	for _, r := range kindRules {
		if got := r.v.Kind.Refinable(); got != r.refinable {
			t.Errorf("%s: Refinable = %v, want %v", r.name, got, r.refinable)
		}
		if got := r.v.FactKey(); got != r.key {
			t.Errorf("%s: FactKey = %q, want %q", r.name, got, r.key)
		}
		db := factDB()
		if got := r.v.Refine(prog, db); got != r.refinable {
			t.Errorf("%s: first Refine = %v, want %v", r.name, got, r.refinable)
		}
		if r.v.Refine(prog, db) {
			t.Errorf("%s: second Refine changed the database again", r.name)
		}
		if entry := prog.Funcs[3].Entry.ID; r.v.Kind == ViolationCalleeSet && !db.Visited.Has(entry) {
			t.Errorf("%s: callee 3's entry block %d still likely unreachable", r.name, entry)
		}
	}

	// One site, two facts: the key tells them apart.
	callee := func(c int) string { return Violation{Kind: ViolationCalleeSet, Site: 7, Callee: c}.FactKey() }
	if callee(3) == callee(4) {
		t.Errorf("callees 3 and 4 at one site share the fact key %q", callee(3))
	}
	path := func(p ...int) string { return Violation{Kind: ViolationCallContext, Site: 9, Path: p}.FactKey() }
	if path(7, 9) == path(8, 9) {
		t.Errorf("paths 7/9 and 8/9 at one site share the fact key %q", path(7, 9))
	}
}

func ruleNames() []string {
	var out []string
	for _, r := range kindRules {
		out = append(out, r.name)
	}
	sort.Strings(out)
	return out
}

// violationKindConsts returns the sorted names of the ViolationKind
// constants declared in violation.go.
func violationKindConsts(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "violation.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); ok && id.Name == "ViolationKind" {
				for _, n := range vs.Names {
					out = append(out, n.Name)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
