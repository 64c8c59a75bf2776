package dynslice

import (
	"errors"
	"fmt"
	"testing"

	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/pointsto"
	"oha/internal/progen"
	"oha/internal/sched"
	"oha/internal/staticslice"
	"oha/internal/vc"
	"oha/internal/workloads"
)

// trace runs the program with full tracing and returns the tracer.
func trace(t *testing.T, p *ir.Program, inputs ...int64) *Tracer {
	t.Helper()
	tr := New(p, nil)
	_, err := interp.Run(interp.Config{
		Prog:      p,
		Inputs:    inputs,
		Tracer:    tr,
		ExecAll:   true,
		Choose:    sched.NewSeeded(1),
		BlockMask: make([]bool, len(p.Blocks)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func lastPrint(t *testing.T, p *ir.Program) *ir.Instr {
	t.Helper()
	var out *ir.Instr
	for _, in := range p.Instrs {
		if in.Op == ir.OpPrint {
			out = in
		}
	}
	if out == nil {
		t.Fatal("no print instruction")
	}
	return out
}

func TestBasicDynamicSlice(t *testing.T) {
	p := lang.MustCompile(`
		func main() {
			var a = input(0);
			var b = input(1);
			var c = a + 1;
			var d = b + 2;    // not in slice of print(c)
			print(c);
			print(d);
		}
	`)
	tr := trace(t, p, 10, 20)
	var firstPrint *ir.Instr
	for _, in := range p.Instrs {
		if in.Op == ir.OpPrint {
			firstPrint = in
			break
		}
	}
	s := tr.Slice(firstPrint)
	if s == nil {
		t.Fatal("no slice")
	}
	// Count input instructions in the slice: only input(0).
	inputs := 0
	for _, in := range p.Instrs {
		if in.Op == ir.OpInput && s.Instrs.Has(in.ID) {
			inputs++
		}
	}
	if inputs != 1 {
		t.Errorf("inputs in slice = %d, want 1", inputs)
	}
}

func TestSliceThroughMemoryLastWriter(t *testing.T) {
	// Dynamic slicing is more precise than static: only the *actual*
	// last store matters.
	p := lang.MustCompile(`
		global g = 0;
		func main() {
			g = input(0);       // overwritten
			g = input(1);       // actual last writer
			print(g);
		}
	`)
	tr := trace(t, p, 1, 2)
	s := tr.Slice(lastPrint(t, p))
	inputsInSlice := 0
	for _, in := range p.Instrs {
		if in.Op == ir.OpInput && s.Instrs.Has(in.ID) {
			inputsInSlice++
		}
	}
	if inputsInSlice != 1 {
		t.Errorf("dynamic slice kept %d inputs, want 1 (last writer only)", inputsInSlice)
	}
}

func TestSliceThroughCallsAndReturns(t *testing.T) {
	p := lang.MustCompile(`
		func mix(x, y) { return x; }  // y irrelevant
		func main() {
			var a = input(0);
			var b = input(1);
			var r = mix(a, b);
			print(r);
		}
	`)
	tr := trace(t, p, 3, 4)
	s := tr.Slice(lastPrint(t, p))
	// input(0) must be in the slice. Note: call-site argument binding
	// is instruction-granular, so input(1) also enters through the
	// call node (the call uses both args) — standard for
	// instruction-level dynamic slicing without parameter splitting.
	var in0 *ir.Instr
	for _, in := range p.Instrs {
		if in.Op == ir.OpInput {
			in0 = in
			break
		}
	}
	if !s.Instrs.Has(in0.ID) {
		t.Error("argument source missing from slice")
	}
	// The callee's ret must be in the slice.
	found := false
	for _, b := range p.FuncByName["mix"].Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpRet && s.Instrs.Has(in.ID) {
				found = true
			}
		}
	}
	if !found {
		t.Error("callee return missing from slice")
	}
}

func TestSliceThroughSpawnedThread(t *testing.T) {
	p := lang.MustCompile(`
		global out = 0;
		func w(v) { out = v * 2; }
		func main() {
			var secret = input(0);
			var t = spawn w(secret);
			join(t);
			print(out);
		}
	`)
	tr := trace(t, p, 21)
	s := tr.Slice(lastPrint(t, p))
	var inp *ir.Instr
	for _, in := range p.Instrs {
		if in.Op == ir.OpInput {
			inp = in
		}
	}
	if !s.Instrs.Has(inp.ID) {
		t.Error("cross-thread dataflow missing from slice")
	}
}

func TestUnexecutedCodeNotInSlice(t *testing.T) {
	p := lang.MustCompile(`
		global g = 0;
		func dead() { g = 99; }
		func main() {
			if (input(0)) { dead(); }
			g = 5;
			print(g);
		}
	`)
	tr := trace(t, p, 0)
	s := tr.Slice(lastPrint(t, p))
	for _, b := range p.FuncByName["dead"].Blocks {
		for _, in := range b.Instrs {
			if s.Instrs.Has(in.ID) {
				t.Error("never-executed instruction in dynamic slice")
			}
		}
	}
}

func TestCriterionNeverExecuted(t *testing.T) {
	p := lang.MustCompile(`
		func main() {
			if (input(0)) { print(1); }
			print(2);
		}
	`)
	tr := trace(t, p, 0)
	var firstPrint *ir.Instr
	for _, in := range p.Instrs {
		if in.Op == ir.OpPrint {
			firstPrint = in
			break
		}
	}
	if tr.Slice(firstPrint) != nil {
		t.Error("slice of unexecuted criterion should be nil")
	}
}

func TestSliceAllInstances(t *testing.T) {
	p := lang.MustCompile(`
		global g = 0;
		func main() {
			var i = 0;
			while (i < 3) {
				g = g + input(i);
				print(g);
				i = i + 1;
			}
		}
	`)
	tr := trace(t, p, 1, 2, 3)
	pr := lastPrint(t, p)
	last := tr.Slice(pr)
	all := tr.SliceAllInstances(pr)
	if last == nil || all == nil {
		t.Fatal("missing slices")
	}
	if !last.Instrs.SubsetOf(all.Instrs) {
		t.Error("last-instance slice not subset of all-instances slice")
	}
	if all.DynNodes <= last.DynNodes {
		t.Error("all-instances slice has no extra dynamic nodes")
	}
}

func TestTraceOverflowAborts(t *testing.T) {
	p := lang.MustCompile(`
		func main() {
			var i = 0;
			while (i < 100000) { i = i + 1; }
		}
	`)
	ab := &interp.Abort{}
	tr := New(p, ab)
	tr.MaxNodes = 1000
	_, err := interp.Run(interp.Config{
		Prog: p, Tracer: tr, ExecAll: true, Abort: ab,
		BlockMask: make([]bool, len(p.Blocks)),
	})
	if !errors.Is(err, interp.ErrAborted) {
		t.Fatalf("err = %v, want abort on trace overflow", err)
	}
	if !tr.Overflowed() {
		t.Error("Overflowed not set")
	}
}

// The hybrid property: tracing only the (sound) static slice yields
// the same dynamic slice as full tracing.
func TestHybridTracingEquivalence(t *testing.T) {
	src := `
		global g = 0;
		global noise = 0;
		func churn(x) { noise = noise + x; return x; }
		func step(v) { return v * 2 + 1; }
		func main() {
			var acc = input(0);
			var i = 0;
			while (i < 5) {
				churn(i);
				acc = step(acc);
				i = i + 1;
			}
			g = acc;
			print(g);
		}
	`
	p := lang.MustCompile(src)
	criterion := lastPrint(t, p)

	// Full Giri.
	full := trace(t, p, 7)
	fullSlice := full.Slice(criterion)

	// Hybrid: static slice -> ExecMask.
	pt, err := pointsto.Analyze(p, ctxs.NewCI(p), nil)
	if err != nil {
		t.Fatal(err)
	}
	static := staticslice.New(pt).BackwardSlice(criterion)
	mask := make([]bool, len(p.Instrs))
	static.Instrs.ForEach(func(id int) bool {
		mask[id] = true
		return true
	})
	hybrid := New(p, nil)
	_, err = interp.Run(interp.Config{
		Prog: p, Inputs: []int64{7}, Tracer: hybrid, ExecMask: mask,
		Choose:    sched.NewSeeded(1),
		BlockMask: make([]bool, len(p.Blocks)),
	})
	if err != nil {
		t.Fatal(err)
	}
	hybridSlice := hybrid.Slice(criterion)
	if hybridSlice == nil {
		t.Fatal("hybrid slice missing")
	}
	if !fullSlice.Equal(hybridSlice) {
		t.Fatalf("hybrid slice differs from full:\nfull   = %v\nhybrid = %v",
			fullSlice.Instrs, hybridSlice.Instrs)
	}
	// And the hybrid run must record fewer nodes.
	if hybrid.NodeCount() >= full.NodeCount() {
		t.Errorf("hybrid traced %d nodes, full traced %d", hybrid.NodeCount(), full.NodeCount())
	}
	// Dynamic slice must be a subset of the sound static slice.
	if !fullSlice.Instrs.SubsetOf(static.Instrs) {
		t.Error("dynamic slice not contained in sound static slice")
	}
}

// refTracer is the reference slicer the flat Tracer is checked
// against: the straightforward formulation with one heap-allocated
// dependence list per node and a map from (frame, register) to the
// defining node. It shares the Tracer's memory last-writer helpers,
// whose layout is unchanged.
type refTracer struct {
	interp.NopTracer
	mem Tracer // memLast/memDefine state only

	nodes        []refNode
	lastReg      map[refRegKey]int32
	lastInstance map[int]int32

	pendingCall  *refCallBinding
	pendingRet   *refRetBinding
	pendingSpawn *refCallBinding
}

type refNode struct {
	instr int
	deps  []int32
}

type refRegKey struct {
	frame interp.FrameID
	v     int
}

type refCallBinding struct {
	site        *ir.Instr
	callee      *ir.Function
	calleeFrame interp.FrameID
}

type refRetBinding struct {
	callee, caller interp.FrameID
	dst            *ir.Var
}

func newRef() *refTracer {
	return &refTracer{lastReg: map[refRegKey]int32{}, lastInstance: map[int]int32{}}
}

func (r *refTracer) Call(_ vc.TID, in *ir.Instr, callee *ir.Function, _, calleeFrame interp.FrameID) {
	r.pendingCall = &refCallBinding{site: in, callee: callee, calleeFrame: calleeFrame}
}

func (r *refTracer) Spawn(_ vc.TID, in *ir.Instr, _ vc.TID, childFrame interp.FrameID, callee *ir.Function) {
	r.pendingSpawn = &refCallBinding{site: in, callee: callee, calleeFrame: childFrame}
}

func (r *refTracer) Ret(_ vc.TID, _ *ir.Instr, callee, caller interp.FrameID, dst *ir.Var) {
	r.pendingRet = &refRetBinding{callee: callee, caller: caller, dst: dst}
}

func (r *refTracer) Exec(_ vc.TID, in *ir.Instr, frame interp.FrameID, addr interp.Addr) {
	switch in.Op {
	case ir.OpJmp, ir.OpBr, ir.OpLock, ir.OpUnlock, ir.OpJoin:
		return
	}
	var deps []int32
	use := func(op ir.Operand) {
		if op.Kind != ir.OperVar {
			return
		}
		if n, ok := r.lastReg[refRegKey{frame, op.Var.ID}]; ok {
			deps = append(deps, n)
		}
	}
	use(in.A)
	use(in.B)
	for _, a := range in.Args {
		use(a)
	}
	if in.Op == ir.OpLoad {
		if n, ok := r.mem.memLast(addr); ok {
			deps = append(deps, n)
		}
	}
	id := int32(len(r.nodes))
	r.nodes = append(r.nodes, refNode{instr: in.ID, deps: deps})
	r.lastInstance[in.ID] = id

	switch in.Op {
	case ir.OpStore:
		r.mem.memDefine(addr, id)
	case ir.OpCall, ir.OpSpawn:
		pb := &r.pendingCall
		if in.Op == ir.OpSpawn {
			pb = &r.pendingSpawn
		}
		if pc := *pb; pc != nil && pc.site == in {
			for _, p := range pc.callee.Params {
				r.lastReg[refRegKey{pc.calleeFrame, p.ID}] = id
			}
			*pb = nil
		}
		if in.Dst != nil {
			r.lastReg[refRegKey{frame, in.Dst.ID}] = id
		}
	case ir.OpRet:
		if pr := r.pendingRet; pr != nil && pr.callee == frame {
			if pr.dst != nil {
				r.lastReg[refRegKey{pr.caller, pr.dst.ID}] = id
			}
			r.pendingRet = nil
		}
	default:
		if in.Dst != nil {
			r.lastReg[refRegKey{frame, in.Dst.ID}] = id
		}
	}
}

func (r *refTracer) sliceFrom(starts []int32, criterion *ir.Instr) *Slice {
	if len(starts) == 0 {
		return nil
	}
	s := &Slice{Instrs: &bitset.Set{}, Criterion: criterion}
	seen := map[int32]bool{}
	work := append([]int32(nil), starts...)
	for _, w := range work {
		seen[w] = true
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		s.DynNodes++
		s.Instrs.Add(r.nodes[n].instr)
		for _, d := range r.nodes[n].deps {
			if !seen[d] {
				seen[d] = true
				work = append(work, d)
			}
		}
	}
	return s
}

func (r *refTracer) Slice(criterion *ir.Instr) *Slice {
	n, ok := r.lastInstance[criterion.ID]
	if !ok {
		return nil
	}
	return r.sliceFrom([]int32{n}, criterion)
}

func (r *refTracer) SliceAllInstances(criterion *ir.Instr) *Slice {
	var starts []int32
	for i, n := range r.nodes {
		if n.instr == criterion.ID {
			starts = append(starts, int32(i))
		}
	}
	return r.sliceFrom(starts, criterion)
}

// sameSlice reports whether two slices agree on instructions and
// dynamic node count.
func sameSlice(a, b *Slice) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Instrs.Equal(b.Instrs) && a.DynNodes == b.DynNodes
}

// oracleConfig is one tracing configuration of the oracle comparison.
type oracleConfig struct {
	name    string
	execAll bool
	mask    []bool
	quantum int
	engine  interp.EngineKind
}

// staticMask returns the ExecMask of the sound static slice of the
// program's last print, plus that print.
func staticMask(t *testing.T, p *ir.Program) []bool {
	t.Helper()
	crit := lastPrint(t, p)
	pt, err := pointsto.Analyze(p, ctxs.NewCI(p), nil)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, len(p.Instrs))
	staticslice.New(pt).BackwardSlice(crit).Instrs.ForEach(func(id int) bool {
		mask[id] = true
		return true
	})
	mask[crit.ID] = true
	return mask
}

// checkOracle runs p under the flat tracer and the reference tracer
// with cfg and requires identical node counts and identical slices
// from every criterion in crits.
func checkOracle(t *testing.T, name string, p *ir.Program, inputs []int64, seed uint64, oc oracleConfig, crits []*ir.Instr) {
	t.Helper()
	run := func(tr interp.Tracer) error {
		_, err := interp.Run(interp.Config{
			Prog: p, Inputs: inputs, Tracer: tr, Choose: sched.NewSeeded(seed),
			ExecAll: oc.execAll, ExecMask: oc.mask, Quantum: oc.quantum, Engine: oc.engine,
			BlockMask: make([]bool, len(p.Blocks)), MaxSteps: 2_000_000,
		})
		return err
	}
	flat, ref := New(p, nil), newRef()
	errFlat, errRef := run(flat), run(ref)
	if (errFlat == nil) != (errRef == nil) || (errFlat != nil && errFlat.Error() != errRef.Error()) {
		t.Fatalf("%s/%s: run errors differ: %v vs %v", name, oc.name, errFlat, errRef)
	}
	if flat.NodeCount() != len(ref.nodes) {
		t.Fatalf("%s/%s: NodeCount %d, reference %d", name, oc.name, flat.NodeCount(), len(ref.nodes))
	}
	for _, c := range crits {
		if got, want := flat.Slice(c), ref.Slice(c); !sameSlice(got, want) {
			t.Fatalf("%s/%s: Slice(%d) differs from reference", name, oc.name, c.ID)
		}
		if got, want := flat.SliceAllInstances(c), ref.SliceAllInstances(c); !sameSlice(got, want) {
			t.Fatalf("%s/%s: SliceAllInstances(%d) differs from reference", name, oc.name, c.ID)
		}
	}
}

// oracleConfigs returns full, static-slice and sparse tracing at
// several quanta (under both engines when trees is set). The sparse
// mask traces every third instruction: uses whose definitions went
// untraced must see no definition, not a stale one from an earlier
// activation.
func oracleConfigs(t *testing.T, p *ir.Program, trees bool) []oracleConfig {
	mask := staticMask(t, p)
	sparse := make([]bool, len(p.Instrs))
	for i := range sparse {
		sparse[i] = i%3 == 0
	}
	var out []oracleConfig
	for _, q := range []int{1, 5, 32} {
		out = append(out,
			oracleConfig{name: fmt.Sprintf("all/q%d", q), execAll: true, quantum: q},
			oracleConfig{name: fmt.Sprintf("static/q%d", q), mask: mask, quantum: q},
			oracleConfig{name: fmt.Sprintf("sparse/q%d", q), mask: sparse, quantum: q})
		if trees {
			out = append(out,
				oracleConfig{name: fmt.Sprintf("all/q%d/tree", q), execAll: true, quantum: q, engine: interp.EngineTree},
				oracleConfig{name: fmt.Sprintf("static/q%d/tree", q), mask: mask, quantum: q, engine: interp.EngineTree})
		}
	}
	return out
}

// criteria returns the prints and rets of p: the outputs, and the
// instructions whose slices cross activation boundaries.
func criteria(p *ir.Program) []*ir.Instr {
	var out []*ir.Instr
	for _, in := range p.Instrs {
		if in.Op == ir.OpPrint || in.Op == ir.OpRet {
			out = append(out, in)
		}
	}
	return out
}

// The flat shadow state must reproduce the reference slicer exactly:
// node counts, last-instance and all-instance slices, and dynamic node
// counts, for generated programs from all three progen families.
func TestTracerMatchesReferenceGenerated(t *testing.T) {
	families := []struct {
		name string
		gen  func(seed uint64) string
	}{
		{"default", func(s uint64) string { return progen.Generate(s, progen.DefaultConfig()) }},
		{"dispatch", func(s uint64) string { return progen.GenerateDispatch(s, progen.DefaultDispatchConfig()) }},
		{"nullable", func(s uint64) string { return progen.GenerateNullable(s, progen.DefaultNullableConfig()) }},
	}
	inputs := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, f := range families {
		for seed := uint64(0); seed < 12; seed++ {
			p := lang.MustCompile(f.gen(seed))
			name := fmt.Sprintf("%s/%d", f.name, seed)
			for _, oc := range oracleConfigs(t, p, seed%3 == 0) {
				checkOracle(t, name, p, inputs, seed+1, oc, criteria(p))
			}
		}
	}
}

// The same oracle over the slicing workload suite.
func TestTracerMatchesReferenceWorkloads(t *testing.T) {
	for _, w := range workloads.Slices() {
		p := w.Prog()
		for _, oc := range oracleConfigs(t, p, false) {
			checkOracle(t, w.Name, p, w.GenInput(1000), 7, oc, criteria(p))
		}
	}
}

// Recursive activations of one function use the same registers; each
// activation's definitions must stay in its own row. If an inner
// activation's definition of x leaked into the outer one, the outer
// add would depend on the wrong node and the slices' dynamic node
// counts would differ from the reference's.
func TestRecursiveActivationsKeepSeparateRows(t *testing.T) {
	p := lang.MustCompile(`
		global g = 0;
		func rec(n, k) {
			var x = n * 2;
			if (n > 0) {
				var y = rec(n - 1, k + x);
				x = x + y;
			}
			g = g + k;
			return x;
		}
		func main() {
			var r = rec(input(0), input(1));
			print(r);
			print(g);
		}
	`)
	for _, oc := range oracleConfigs(t, p, true) {
		checkOracle(t, "rec", p, []int64{6, 1}, 1, oc, p.Instrs)
	}
}
