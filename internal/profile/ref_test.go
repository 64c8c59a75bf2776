package profile

import (
	"bytes"
	"fmt"
	"testing"

	"oha/internal/bitset"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/sched"
	"oha/internal/vc"
	"oha/internal/workloads"
)

// refCollector is the reference profiling collector the flat Collector
// replaced: it keeps its per-run state in maps and string-keys every
// call context it observes. Tests run both on the same executions and
// require identical databases.
type refCollector struct {
	interp.NopTracer
	prog *ir.Program

	visited     *bitset.Set
	spawnCounts map[int]int
	lockObjs    map[int]map[interp.Addr]bool
	callees     map[int]*bitset.Set
	ctxs        *invariants.ContextSet
	stacks      map[vc.TID]*refStack
	zeroLoads   *bitset.Set // load sites observed producing 0
}

// refFrame mirrors one activation for context tracking.
type refFrame struct {
	fnID     int
	extended bool // this activation extended the acyclic context path
}

// refStack is the per-thread analysis stack.
type refStack struct {
	frames []refFrame
	active map[int]int // function ID -> activations on stack
	path   []int       // acyclic context path (call-site instr IDs)
}

// newRefCollector returns a reference collector for one run of prog.
func newRefCollector(prog *ir.Program) *refCollector {
	return &refCollector{
		prog:        prog,
		visited:     &bitset.Set{},
		spawnCounts: map[int]int{},
		lockObjs:    map[int]map[interp.Addr]bool{},
		callees:     map[int]*bitset.Set{},
		ctxs:        invariants.NewContextSet(),
		stacks:      map[vc.TID]*refStack{},
		zeroLoads:   &bitset.Set{},
	}
}

// FastState implements interp.FastTracer: profiling's Load handler is
// a pure zero-test (the shape the FastNull inline path assumes), so
// the engine can settle every non-nil load inline. The collector's other
// events are unaffected.
func (c *refCollector) FastState() *interp.FastState {
	return &interp.FastState{Kind: interp.FastNull}
}

// stack returns (creating on first use) the context stack of thread t.
// Thread 0's root is main with the empty context.
func (c *refCollector) stack(t vc.TID) *refStack {
	s := c.stacks[t]
	if s == nil {
		main := c.prog.Main()
		s = &refStack{active: map[int]int{}}
		s.frames = append(s.frames, refFrame{fnID: main.ID, extended: true})
		s.active[main.ID] = 1
		c.ctxs.Add(nil)
		c.stacks[t] = s
	}
	return s
}

// push records entry into callee through call-site siteID.
func (s *refStack) push(siteID, calleeID int, ctxs *invariants.ContextSet) {
	fr := refFrame{fnID: calleeID}
	if s.active[calleeID] == 0 {
		fr.extended = true
		s.path = append(s.path, siteID)
		ctxs.Add(s.path)
	}
	s.active[calleeID]++
	s.frames = append(s.frames, fr)
}

// pop records a return.
func (s *refStack) pop() {
	if len(s.frames) == 0 {
		return
	}
	fr := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.active[fr.fnID]--
	if fr.extended && len(s.path) > 0 {
		s.path = s.path[:len(s.path)-1]
	}
}

// BlockEnter implements interp.Tracer: basic-block counting for the
// likely-unreachable-code invariant.
func (c *refCollector) BlockEnter(_ vc.TID, b *ir.Block) {
	c.visited.Add(b.ID)
}

// Load implements interp.Tracer: records load sites observed producing
// 0 (the likely-non-null-loads invariant assumes the complement).
func (c *refCollector) Load(_ vc.TID, in *ir.Instr, _ interp.Addr, val int64) {
	if val == 0 {
		c.zeroLoads.Add(in.ID)
	}
}

// Lock implements interp.Tracer: records the dynamic object locked at
// each lock site (likely guarding locks).
func (c *refCollector) Lock(_ vc.TID, in *ir.Instr, addr interp.Addr) {
	m := c.lockObjs[in.ID]
	if m == nil {
		m = map[interp.Addr]bool{}
		c.lockObjs[in.ID] = m
	}
	m[addr] = true
}

// Spawn implements interp.Tracer: spawn-site instance counting (likely
// singleton threads), indirect-spawn targets, and context roots for
// spawned threads.
func (c *refCollector) Spawn(t vc.TID, in *ir.Instr, child vc.TID, _ interp.FrameID, callee *ir.Function) {
	c.spawnCounts[in.ID]++
	if in.IsIndirect() {
		c.addCallee(in.ID, callee.ID)
	}
	// Child context: parent's path extended by the spawn site.
	parent := c.stack(t)
	cs := &refStack{active: map[int]int{}}
	cs.path = append(append([]int(nil), parent.path...), in.ID)
	cs.frames = append(cs.frames, refFrame{fnID: callee.ID, extended: true})
	cs.active[callee.ID] = 1
	c.ctxs.Add(cs.path)
	c.stacks[child] = cs
}

// Call implements interp.Tracer: indirect-call target sets (likely
// callee sets) and call-context tracking (likely unused call
// contexts).
func (c *refCollector) Call(t vc.TID, in *ir.Instr, callee *ir.Function, _, _ interp.FrameID) {
	if in.IsIndirect() {
		c.addCallee(in.ID, callee.ID)
	}
	c.stack(t).push(in.ID, callee.ID, c.ctxs)
}

// Ret implements interp.Tracer.
func (c *refCollector) Ret(t vc.TID, _ *ir.Instr, _, _ interp.FrameID, _ *ir.Var) {
	c.stack(t).pop()
}

func (c *refCollector) addCallee(site, fnID int) {
	if fnID < 0 {
		return
	}
	s := c.callees[site]
	if s == nil {
		s = &bitset.Set{}
		c.callees[site] = s
	}
	s.Add(fnID)
}

// Summarize converts the raw observations of one run into that run's
// invariant database.
func (c *refCollector) Summarize() *invariants.DB {
	db := invariants.NewDB()
	db.Visited = c.visited.Clone()

	// Likely guarding locks: pairs of sites that each locked exactly
	// one dynamic object, the same one.
	type single struct {
		site int
		obj  interp.Addr
	}
	var singles []single
	for site, objs := range c.lockObjs {
		if len(objs) == 1 {
			for obj := range objs {
				singles = append(singles, single{site, obj})
			}
		}
	}
	for i := 0; i < len(singles); i++ {
		// A single-object site must-aliases itself (required for even
		// self-pair lockset pruning: polymorphic sites do not).
		db.MustAliasLocks[invariants.NormPair(singles[i].site, singles[i].site)] = true
		for j := i + 1; j < len(singles); j++ {
			if singles[i].obj == singles[j].obj {
				db.MustAliasLocks[invariants.NormPair(singles[i].site, singles[j].site)] = true
			}
		}
	}

	// Likely singleton threads: every spawn site that created at most
	// one thread this run (sites that did not run count as ≤ 1).
	for _, in := range c.prog.Instrs {
		if in.Op == ir.OpSpawn && c.spawnCounts[in.ID] <= 1 {
			db.SingletonSpawns.Add(in.ID)
		}
	}

	for site, set := range c.callees {
		db.Callees[site] = set.Clone()
	}
	db.Contexts = c.ctxs.Clone()

	// Likely non-null loads: every load site never observed producing 0
	// this run (sites that did not execute trivially qualify, like
	// singleton spawns — the intersection merge keeps only sites that
	// held across every profiled run).
	zero := c.zeroLoads
	for _, in := range c.prog.Instrs {
		if in.Op == ir.OpLoad && !zero.Has(in.ID) {
			db.NonNullLoads.Add(in.ID)
		}
	}
	return db
}

// profCase is one program with the executions profiled on it.
type profCase struct {
	name  string
	prog  *ir.Program
	execs []Exec
}

// handSources are hand-written context shapes the generated corpus
// may miss.
var handSources = map[string]string{
	"recursion": `
		func r(n) {
			if (n <= 0) { return 0; }
			return r(n - 1) + 1;
		}
		func s(n) {
			if (n <= 0) { return 0; }
			return r(n) + s(n - 1);
		}
		func main() { print(r(9)); print(s(4)); print(r(2)); }
	`,
	"spawned-thread": `
		func leaf() { return 2; }
		func w() { print(leaf()); print(leaf()); }
		func main() {
			var t = spawn w();
			var u = spawn w();
			print(leaf());
			join(t);
			join(u);
		}
	`,
	"spawn-from-worker": `
		global m = 0;
		func leaf() { lock(&m); unlock(&m); return 3; }
		func inner() { print(leaf()); }
		func outer() {
			var t = spawn inner();
			print(leaf());
			join(t);
		}
		func main() {
			var t = spawn outer();
			join(t);
			print(leaf());
		}
	`,
	"no-calls": `
		global g = 0;
		func main() {
			var i = 0;
			while (i < 5) { g = g + i; i = i + 1; }
			print(g);
		}
	`,
}

// profCorpus is every workload (six profiling runs each), 25 seeds of
// each generated program family, and the hand-written cases.
func profCorpus(t *testing.T) []profCase {
	t.Helper()
	var out []profCase
	for _, w := range workloads.All() {
		c := profCase{name: w.Name, prog: w.Prog()}
		for run := 0; run < 6; run++ {
			c.execs = append(c.execs, Exec{Inputs: w.GenInput(run), Seed: uint64(run + 1)})
		}
		out = append(out, c)
	}
	compile := func(name, src string, execs ...Exec) {
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		out = append(out, profCase{name: name, prog: prog, execs: execs})
	}
	for seed := uint64(1); seed <= 25; seed++ {
		compile(fmt.Sprintf("progen%d", seed), progen.Generate(seed, progen.DefaultConfig()),
			Exec{Seed: seed}, Exec{Seed: seed + 100})
		compile(fmt.Sprintf("dispatch%d", seed), progen.GenerateDispatch(seed, progen.DefaultDispatchConfig()),
			Exec{Inputs: []int64{0, 9, 4}, Seed: seed}, Exec{Inputs: []int64{7, 9, 4}, Seed: seed + 100})
		compile(fmt.Sprintf("nullable%d", seed), progen.GenerateNullable(seed, progen.DefaultNullableConfig()),
			Exec{Inputs: []int64{950, 980, 990, 6, 2}, Seed: seed})
	}
	for name, src := range handSources {
		compile(name, src, Exec{Seed: 1}, Exec{Seed: 2})
	}
	return out
}

// summary runs execution e of prog with tracer under code
// and renders the outcome: the error, or the summarized database.
func summary(t *testing.T, prog *ir.Program, code *interp.Code, tracer interp.Tracer, summarize func() *invariants.DB, e Exec) string {
	t.Helper()
	_, err := interp.Run(interp.Config{Prog: prog, Inputs: e.Inputs, Tracer: tracer, Choose: sched.NewSeeded(e.Seed), Code: code})
	if err != nil {
		return "error: " + err.Error()
	}
	return string(dbBytes(t, summarize()))
}

// TestCollectorMatchesReference pins the flat collector to the
// map-based reference: on every execution of the corpus, Summarize
// renders the same database text.
func TestCollectorMatchesReference(t *testing.T) {
	for _, c := range profCorpus(t) {
		full := interp.Compile(c.prog, interp.Masks{})
		trimmed := interp.Compile(c.prog, Masks(c.prog))
		for i, e := range c.execs {
			ref := newRefCollector(c.prog)
			want := summary(t, c.prog, full, ref, ref.Summarize, e)
			col := NewCollector(c.prog)
			if got := summary(t, c.prog, trimmed, col, col.Summarize, e); got != want {
				t.Errorf("%s run %d: collector diverged from reference:\n got: %s\nwant: %s", c.name, i, got, want)
			}
		}
	}
}

// TestProfileMasksDropNothing checks that the trimmed profiling image
// loses no event the collector reads: Run (compiling from Masks) and a
// run on the full-instrumentation image give identical databases.
func TestProfileMasksDropNothing(t *testing.T) {
	for _, c := range profCorpus(t) {
		full := interp.Compile(c.prog, interp.Masks{})
		for i, e := range c.execs {
			want, wantErr := RunCoded(nil, full, c.prog, e.Inputs, e.Seed)
			got, err := Run(c.prog, e.Inputs, e.Seed)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s run %d: error %v, full image %v", c.name, i, err, wantErr)
			}
			if err == nil && !bytes.Equal(dbBytes(t, got), dbBytes(t, want)) {
				t.Errorf("%s run %d: database differs from the full-instrumentation run", c.name, i)
			}
		}
	}
}
