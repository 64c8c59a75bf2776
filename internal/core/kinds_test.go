package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"oha/internal/bitset"
	"oha/internal/invariants"
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
	{"ViolationCalleeSet", Violation{Kind: ViolationCalleeSet, Site: 7, Callee: 3, Detail: "f"}, true, "callee-set@7>3"},
	{"ViolationCallContext", Violation{Kind: ViolationCallContext, Site: 9, Callee: -1, Path: []int{7, 9}}, true, "call-context@9/7/9"},
	{"ViolationElidedLockRace", Violation{Kind: ViolationElidedLockRace, Site: -1, Callee: -1}, true, "elided-lock-race@-1"},
	{"ViolationNonNull", Violation{Kind: ViolationNonNull, Site: 7, Callee: -1}, true, "non-null-load@7"},
	{"ViolationTraceLimit", Violation{Kind: ViolationTraceLimit, Site: -1, Callee: -1, Detail: "1024 nodes"}, false, "trace-limit@-1"},
}

// factDB returns a database holding every fact a kindRules violation
// refutes: block 7 likely unreachable, spawn 7 likely singleton, lock
// sites 7 and 9 must-alias, lock 7 elidable, call site 7 with an empty
// callee set, no contexts, and load 7 likely non-null.
func factDB() *invariants.DB {
	db := invariants.NewDB()
	db.SingletonSpawns.Add(7)
	db.MustAliasLocks[invariants.LockPair{A: 7, B: 9}] = true
	db.ElidableLocks.Add(7)
	db.Callees[7] = &bitset.Set{}
	db.NonNullLoads.Add(7)
	return db
}

// kindsSrc declares the functions kindRules' callee-set violation
// names: function 3 is c.
const kindsSrc = `
	func a() { return 1; }
	func b() { return 2; }
	func main() { print(a() + b()); }
	func c() { return 3; }
`

// TestViolationKindRules pins each kind's refinement rule: which kinds
// refine, the fact-key format (refined databases are cached under these
// keys, so it must not drift), and that Refine removes the refuted fact
// exactly once. Refining a callee-set fact also marks the callee's
// entry block visited.
func TestViolationKindRules(t *testing.T) {
	prog := lang.MustCompile(kindsSrc)
	if len(prog.Funcs) < 4 {
		t.Fatalf("kindsSrc has %d functions, want function 3", len(prog.Funcs))
	}
	if got, want := ruleNames(), violationKindConsts(t); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("rule table covers %v, want every ViolationKind constant %v", got, want)
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
		if entry := prog.Funcs[3].Entry.ID; r.v.Kind == ViolationCalleeSet && db.LikelyUnreachable(entry) {
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
