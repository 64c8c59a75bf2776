// Differential tests for the compiled bytecode engine: over a large
// population of generated programs and a matrix of instrumentation
// configurations and schedulers, the compiled engine must be
// bit-identical to the tree-walking interpreter — same outputs, same
// stats, same thread counts, same error strings, the same event stream
// in the same order, and the same FastTrack race sets.
package interp_test

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"oha/internal/fasttrack"
	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/sched"
	"oha/internal/vc"
)

// -ic/-fusion/-fastpath compile every differential image with the
// corresponding speculative lowering disabled; `go test -run
// TestEngineDifferential -ic=off -fusion=off` (and separately
// `-fastpath=off`) are the CI equivalence gates proving results do not
// depend on any of the optimizations.
var (
	icFlag       = flag.String("ic", "on", "differential images: speculative inline caches (on|off)")
	fusionFlag   = flag.String("fusion", "on", "differential images: superinstruction fusion (on|off)")
	fastpathFlag = flag.String("fastpath", "on", "differential images: inline analysis fast paths (on|off)")
	imageFlag    = flag.String("image", "direct", "differential images: direct in-memory Code, or an EncodeImage/DecodeImage round trip (direct|roundtrip)")
)

// diffCompile builds the image the compiled-engine half of a
// differential run executes, honoring the -ic/-fusion test flags. With
// -image=roundtrip every image is serialized to its .ohc form and
// decoded back before executing, so the whole differential matrix
// doubles as the decoded-image equivalence gate: traces, step counts,
// and violation histories must be bit-identical to in-memory
// compilation.
func diffCompile(prog *ir.Program, m interp.Masks, callees map[int][]int) *interp.Code {
	code := interp.CompileWith(prog, m, interp.CompileOptions{
		Callees:         callees,
		DisableIC:       *icFlag == "off",
		DisableFusion:   *fusionFlag == "off",
		DisableFastPath: *fastpathFlag == "off",
	})
	if *imageFlag == "roundtrip" {
		dec, err := interp.DecodeImage(prog, code.EncodeImage())
		if err != nil {
			panic("diffCompile: image round trip failed: " + err.Error())
		}
		return dec
	}
	return code
}

// indirectSites returns the program's indirect call/spawn instructions
// (the sites inline caches apply to).
func indirectSites(prog *ir.Program) []*ir.Instr {
	var out []*ir.Instr
	for _, in := range prog.Instrs {
		if (in.Op == ir.OpCall || in.Op == ir.OpSpawn) && in.Callee == nil {
			out = append(out, in)
		}
	}
	return out
}

// calleesLikely seeds every indirect site with all arity-compatible
// functions (up to the cache capacity): the profile a converged
// invariant DB would produce, so dispatches mostly hit.
func calleesLikely(prog *ir.Program) map[int][]int {
	seeds := map[int][]int{}
	for _, in := range indirectSites(prog) {
		var fids []int
		for _, f := range prog.Funcs {
			if len(f.Params) == len(in.Args) && len(fids) < 4 {
				fids = append(fids, f.ID)
			}
		}
		if len(fids) > 0 {
			seeds[in.ID] = fids
		}
	}
	return seeds
}

// calleesEscaping seeds every indirect site with a single target (the
// highest arity-compatible function ID): real dispatches routinely
// miss, so the first miss deoptimizes the site and later dispatches
// take the generic path — the IC state machine's worst case.
func calleesEscaping(prog *ir.Program) map[int][]int {
	seeds := map[int][]int{}
	for _, in := range indirectSites(prog) {
		for i := len(prog.Funcs) - 1; i >= 0; i-- {
			if len(prog.Funcs[i].Params) == len(in.Args) {
				seeds[in.ID] = []int{prog.Funcs[i].ID}
				break
			}
		}
	}
	return seeds
}

// calleesJunk seeds sites with out-of-range and arity-incompatible
// function IDs; the compiler must filter them all, leaving the site
// generic (and mis-arity calls trapping identically).
func calleesJunk(prog *ir.Program) map[int][]int {
	seeds := map[int][]int{}
	for _, in := range indirectSites(prog) {
		fids := []int{-1, len(prog.Funcs), len(prog.Funcs) + 7}
		for _, f := range prog.Funcs {
			if len(f.Params) != len(in.Args) {
				fids = append(fids, f.ID)
				break
			}
		}
		seeds[in.ID] = fids
	}
	return seeds
}

// recorder stringifies every tracer event in delivery order, so two
// runs can be compared event-for-event.
type recorder struct {
	interp.NopTracer
	ev []string
}

func (r *recorder) add(format string, args ...any) {
	r.ev = append(r.ev, fmt.Sprintf(format, args...))
}

func (r *recorder) Load(t vc.TID, in *ir.Instr, a interp.Addr, v int64) {
	r.add("load t%d i%d a%d v%d", t, in.ID, a, v)
}

func (r *recorder) Store(t vc.TID, in *ir.Instr, a interp.Addr, v int64) {
	r.add("store t%d i%d a%d v%d", t, in.ID, a, v)
}

func (r *recorder) Lock(t vc.TID, in *ir.Instr, a interp.Addr) {
	r.add("lock t%d i%d a%d", t, in.ID, a)
}

func (r *recorder) Unlock(t vc.TID, in *ir.Instr, a interp.Addr) {
	r.add("unlock t%d i%d a%d", t, in.ID, a)
}

func (r *recorder) Spawn(t vc.TID, in *ir.Instr, c vc.TID, cf interp.FrameID, fn *ir.Function) {
	r.add("spawn t%d i%d c%d f%d %s", t, in.ID, c, cf, fn.Name)
}

func (r *recorder) Join(t vc.TID, in *ir.Instr, c vc.TID) {
	r.add("join t%d i%d c%d", t, in.ID, c)
}

func (r *recorder) BlockEnter(t vc.TID, b *ir.Block) {
	r.add("blk t%d b%d", t, b.ID)
}

func (r *recorder) Call(t vc.TID, in *ir.Instr, fn *ir.Function, cr, ce interp.FrameID) {
	r.add("call t%d i%d %s f%d f%d", t, in.ID, fn.Name, cr, ce)
}

func (r *recorder) Ret(t vc.TID, in *ir.Instr, ce, cr interp.FrameID, dst *ir.Var) {
	d := "-"
	if dst != nil {
		d = dst.Name
	}
	r.add("ret t%d i%d f%d f%d %s", t, in.ID, ce, cr, d)
}

func (r *recorder) Exec(t vc.TID, in *ir.Instr, f interp.FrameID, a interp.Addr) {
	r.add("exec t%d i%d f%d a%d", t, in.ID, f, a)
}

func (r *recorder) NilDeref(t vc.TID, in *ir.Instr) {
	r.add("nil t%d i%d", t, in.ID)
}

// altMask marks every other index, offset by phase — a half-on mask
// that exercises both the instrumented and elided paths.
func altMask(n, phase int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = i%2 == phase
	}
	return m
}

// diffVariant is one instrumentation/scheduler configuration of the
// differential matrix. make builds a fresh Config (fresh tracer, fresh
// chooser) for every run — choosers and tracers are stateful.
type diffVariant struct {
	name string
	make func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector)
	// callees fabricates inline-cache seeds for the compiled image
	// (nil: no seeds — the IC-free baseline).
	callees func(prog *ir.Program) map[int][]int
}

const diffMaxSteps = 30_000

func diffVariants() []diffVariant {
	vs := []diffVariant{
		{name: "plain", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
			return interp.Config{Prog: prog, MaxSteps: diffMaxSteps}, nil, nil
		}},
		{name: "traced-full", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
			r := &recorder{}
			return interp.Config{Prog: prog, Tracer: r, MaxSteps: diffMaxSteps}, r, nil
		}},
		{name: "traced-masked", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
			r := &recorder{}
			return interp.Config{
				Prog:     prog,
				Tracer:   r,
				Masks:    interp.Masks{Mem: altMask(len(prog.Instrs), 0), Sync: altMask(len(prog.Instrs), 1), Block: altMask(len(prog.Blocks), 0), Exec: altMask(len(prog.Instrs), 1)},
				Choose:   sched.NewSeeded(seed),
				Quantum:  3,
				MaxSteps: diffMaxSteps,
			}, r, nil
		}},
		{name: "execall", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
			r := &recorder{}
			return interp.Config{
				Prog:     prog,
				Tracer:   r,
				Masks:    interp.Masks{Block: make([]bool, len(prog.Blocks)), ExecAll: true},
				Choose:   sched.NewSeeded(seed*7 + 1),
				Quantum:  1,
				MaxSteps: diffMaxSteps,
			}, r, nil
		}},
		{name: "fasttrack", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
			det := fasttrack.New()
			return interp.Config{
				Prog:     prog,
				Tracer:   det,
				Masks:    interp.Masks{Block: make([]bool, len(prog.Blocks))},
				Choose:   sched.NewSeeded(seed),
				Quantum:  5,
				MaxSteps: diffMaxSteps,
			}, nil, det
		}},
	}
	// Inline-cache variants: the same traced-masked configuration, with
	// the compiled image seeded three ways — likely (mostly hits),
	// escaping (first dispatch deoptimizes most sites), and junk
	// (every seed filtered at compile time). Event streams, stats, race
	// sets, and traps must stay bit-identical to the tree-walker in all
	// three, plus under a tight quantum that forces fused runs to split
	// at every slice boundary around cache-hit call sites.
	traced := func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
		r := &recorder{}
		return interp.Config{
			Prog:     prog,
			Tracer:   r,
			Masks:    interp.Masks{Mem: altMask(len(prog.Instrs), 1), Sync: altMask(len(prog.Instrs), 0), Block: altMask(len(prog.Blocks), 1)},
			Choose:   sched.NewSeeded(seed*3 + 2),
			Quantum:  4,
			MaxSteps: diffMaxSteps,
		}, r, nil
	}
	quantum1 := func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
		r := &recorder{}
		return interp.Config{
			Prog:     prog,
			Tracer:   r,
			Masks:    interp.Masks{Mem: make([]bool, len(prog.Instrs)), Sync: nil, Block: altMask(len(prog.Blocks), 0)},
			Choose:   sched.NewSeeded(seed),
			Quantum:  1,
			MaxSteps: diffMaxSteps,
		}, r, nil
	}
	vs = append(vs,
		diffVariant{name: "ic-likely", make: traced, callees: calleesLikely},
		diffVariant{name: "ic-escape", make: traced, callees: calleesEscaping},
		diffVariant{name: "ic-junk", make: traced, callees: calleesJunk},
		diffVariant{name: "ic-quantum1", make: quantum1, callees: calleesLikely},
	)
	// Null-check variants: residual nil checks at every deref site
	// (the always-check configuration) and at alternating sites (a
	// partially-discharged mask), with NilDeref events recorded — the
	// null client's verdicts, recovery values, and check counts must be
	// bit-identical across engines.
	vs = append(vs,
		diffVariant{name: "null-all", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
			r := &recorder{}
			return interp.Config{
				Prog:     prog,
				Tracer:   r,
				Masks:    interp.Masks{Null: derefMask(prog)},
				Choose:   sched.NewSeeded(seed*5 + 3),
				Quantum:  3,
				MaxSteps: diffMaxSteps,
			}, r, nil
		}},
		diffVariant{name: "null-residual", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
			r := &recorder{}
			return interp.Config{
				Prog:     prog,
				Tracer:   r,
				Masks:    interp.Masks{Mem: altMask(len(prog.Instrs), 1), Null: altMask(len(prog.Instrs), 0)},
				Choose:   sched.NewSeeded(seed*9 + 5),
				Quantum:  2,
				MaxSteps: diffMaxSteps,
			}, r, nil
		}},
	)
	// Aborting memory tracer: the recorder raises the abort flag on the
	// Nth Load/Store event, N derived from the seed. Instrumented loads
	// and stores sit inside fused runs, so the abort lands mid-run and
	// the compiled engine must stop at exactly the step, event, and
	// stats the tree-walker's poll-after-each stops at.
	vs = append(vs, diffVariant{name: "abort-mem", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
		abort := &interp.Abort{}
		r := &memAborter{recorder: &recorder{}, abort: abort, left: 1 + int(seed*13%97)}
		return interp.Config{
			Prog:     prog,
			Tracer:   r,
			Masks:    interp.Masks{Mem: altMask(len(prog.Instrs), 0)},
			Choose:   sched.NewSeeded(seed*11 + 7),
			Quantum:  16,
			MaxSteps: diffMaxSteps,
			Abort:    abort,
		}, r.recorder, nil
	}})
	// Aborting block and Exec tracers: the abort is raised from the Nth
	// BlockEnter (delivered by a fused run's pre-decoded branch or jump)
	// or the Nth Exec event (delivered inside a fused run by an
	// Exec-carrying component). A quantum of 4, the mean fused run
	// length, often ends a slice exactly at a run's terminator, so the
	// next slice executes it raw.
	vs = append(vs,
		diffVariant{name: "abort-block", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
			abort := &interp.Abort{}
			r := &eventAborter{recorder: &recorder{}, abort: abort, left: 1 + int(seed*7%61)}
			return interp.Config{
				Prog:     prog,
				Tracer:   r,
				Masks:    interp.Masks{Mem: make([]bool, len(prog.Instrs)), Block: altMask(len(prog.Blocks), int(seed%2))},
				Choose:   sched.NewSeeded(seed*13 + 3),
				Quantum:  4,
				MaxSteps: diffMaxSteps,
				Abort:    abort,
			}, r.recorder, nil
		}},
		diffVariant{name: "abort-exec", make: func(prog *ir.Program, seed uint64) (interp.Config, *recorder, *fasttrack.Detector) {
			abort := &interp.Abort{}
			r := &eventAborter{recorder: &recorder{}, abort: abort, left: 1 + int(seed*17%113), exec: true}
			return interp.Config{
				Prog:     prog,
				Tracer:   r,
				Masks:    interp.Masks{Mem: altMask(len(prog.Instrs), 1), Exec: altMask(len(prog.Instrs), 0)},
				Choose:   sched.NewSeeded(seed*17 + 5),
				Quantum:  4,
				MaxSteps: diffMaxSteps,
				Abort:    abort,
			}, r.recorder, nil
		}},
	)
	return vs
}

// eventAborter is a recorder that raises the abort flag on its left'th
// BlockEnter event, or its left'th Exec event when exec is set.
type eventAborter struct {
	*recorder
	abort *interp.Abort
	left  int
	exec  bool
}

func (a *eventAborter) BlockEnter(t vc.TID, b *ir.Block) {
	a.recorder.BlockEnter(t, b)
	if !a.exec {
		a.count()
	}
}

func (a *eventAborter) Exec(t vc.TID, in *ir.Instr, f interp.FrameID, addr interp.Addr) {
	a.recorder.Exec(t, in, f, addr)
	if a.exec {
		a.count()
	}
}

func (a *eventAborter) count() {
	if a.left--; a.left == 0 {
		a.abort.Set("event budget spent")
	}
}

// memAborter is a recorder that raises the abort flag on its left'th
// Load or Store event.
type memAborter struct {
	*recorder
	abort *interp.Abort
	left  int
}

func (m *memAborter) Load(t vc.TID, in *ir.Instr, a interp.Addr, v int64) {
	m.recorder.Load(t, in, a, v)
	m.count()
}

func (m *memAborter) Store(t vc.TID, in *ir.Instr, a interp.Addr, v int64) {
	m.recorder.Store(t, in, a, v)
	m.count()
}

func (m *memAborter) count() {
	if m.left--; m.left == 0 {
		m.abort.Set("memory event budget spent")
	}
}

// derefMask marks every load/store site: the always-check null mask.
func derefMask(prog *ir.Program) []bool {
	m := make([]bool, len(prog.Instrs))
	for _, in := range prog.Instrs {
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			m[in.ID] = true
		}
	}
	return m
}

// runDiff executes one variant under both engines and fails on any
// observable divergence.
func runDiff(t *testing.T, prog *ir.Program, v diffVariant, seed uint64) {
	runDiffIn(t, prog, v, seed, nil)
}

// runDiffIn is runDiff with an explicit input vector.
func runDiffIn(t *testing.T, prog *ir.Program, v diffVariant, seed uint64, inputs []int64) {
	t.Helper()

	type outcome struct {
		res    *interp.Result
		errStr string
		events []string
		races  []fasttrack.Key
		racy   []interp.Addr
	}
	runOne := func(engine interp.EngineKind) outcome {
		cfg, rec, det := v.make(prog, seed)
		cfg.Engine = engine
		cfg.Inputs = inputs
		if engine == interp.EngineCompiled {
			// Precompile the image so every variant honors the -ic and
			// -fusion flags (and the IC variants their fabricated seeds);
			// the tree engine ignores Code.
			var seeds map[int][]int
			if v.callees != nil {
				seeds = v.callees(prog)
			}
			cfg.Code = diffCompile(prog, cfg.Masks, seeds)
		}
		res, err := interp.Run(cfg)
		var o outcome
		o.res = res
		if err != nil {
			o.errStr = err.Error()
		}
		if rec != nil {
			o.events = rec.ev
		}
		if det != nil {
			o.races = det.RaceKeys()
			o.racy = det.RacyAddrs()
		}
		return o
	}

	tree := runOne(interp.EngineTree)
	comp := runOne(interp.EngineCompiled)

	if tree.errStr != comp.errStr {
		t.Fatalf("%s: error diverged:\n tree: %q\n comp: %q", v.name, tree.errStr, comp.errStr)
	}
	if (tree.res == nil) != (comp.res == nil) {
		t.Fatalf("%s: result presence diverged", v.name)
	}
	if tree.res != nil {
		if fmt.Sprint(tree.res.Output) != fmt.Sprint(comp.res.Output) {
			t.Fatalf("%s: output diverged:\n tree: %v\n comp: %v", v.name, tree.res.Output, comp.res.Output)
		}
		if tree.res.Stats != comp.res.Stats {
			t.Fatalf("%s: stats diverged:\n tree: %+v\n comp: %+v", v.name, tree.res.Stats, comp.res.Stats)
		}
		if tree.res.Threads != comp.res.Threads {
			t.Fatalf("%s: thread count diverged: %d vs %d", v.name, tree.res.Threads, comp.res.Threads)
		}
	}
	if len(tree.events) != len(comp.events) {
		t.Fatalf("%s: event count diverged: %d vs %d\n tree tail: %v\n comp tail: %v",
			v.name, len(tree.events), len(comp.events), tail(tree.events), tail(comp.events))
	}
	for i := range tree.events {
		if tree.events[i] != comp.events[i] {
			t.Fatalf("%s: event %d diverged:\n tree: %s\n comp: %s", v.name, i, tree.events[i], comp.events[i])
		}
	}
	if fmt.Sprint(tree.races) != fmt.Sprint(comp.races) {
		t.Fatalf("%s: race keys diverged:\n tree: %v\n comp: %v", v.name, tree.races, comp.races)
	}
	if fmt.Sprint(tree.racy) != fmt.Sprint(comp.racy) {
		t.Fatalf("%s: racy addrs diverged:\n tree: %v\n comp: %v", v.name, tree.racy, comp.racy)
	}
}

func tail(ev []string) []string {
	if len(ev) > 5 {
		return ev[len(ev)-5:]
	}
	return ev
}

// TestEngineDifferential runs both engines over generated programs
// under the full configuration matrix.
func TestEngineDifferential(t *testing.T) {
	const programs = 110
	variants := diffVariants()
	for seed := uint64(1); seed <= programs; seed++ {
		cfg := progen.DefaultConfig()
		if seed%3 == 0 {
			cfg = progen.Config{Funcs: 6, Workers: 3, MaxDepth: 4, MaxStmts: 6}
		}
		src := progen.Generate(seed, cfg)
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		for _, v := range variants {
			v := v
			t.Run(fmt.Sprintf("seed%d/%s", seed, v.name), func(t *testing.T) {
				runDiff(t, prog, v, seed)
			})
		}
	}
}

// TestEngineDifferentialNullable runs both engines over the generated
// pointer-discipline family on inputs spanning benign, repaired, and
// nil-dereferencing paths. Under the null variants every nil deref
// recovers (and is recorded as an event); under unmasked variants both
// engines must trap identically at the first nil access.
func TestEngineDifferentialNullable(t *testing.T) {
	variants := diffVariants()
	inputVectors := [][]int64{
		{50, 60, 70, 3, 5},
		{950, 980, 990, 6, 2},
		{2000, 1500, 1800, 7, 1},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		src := progen.GenerateNullable(seed, progen.DefaultNullableConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		for vi, inputs := range inputVectors {
			inputs := inputs
			for _, v := range variants {
				v := v
				t.Run(fmt.Sprintf("seed%d/in%d/%s", seed, vi, v.name), func(t *testing.T) {
					runDiffIn(t, prog, v, seed, inputs)
				})
			}
		}
	}
}

// TestEngineDifferentialDispatch runs both engines over the dispatch-
// heavy generated family with inputs sweeping the per-site
// polymorphism from monomorphic (sel=0) to table-wide (sel=7) — so
// under the IC variants, indirect calls routinely escape the
// fabricated callee seeds mid-run. Outputs, stats, event streams, and
// race sets must stay bit-identical throughout.
func TestEngineDifferentialDispatch(t *testing.T) {
	variants := diffVariants()
	cfg := progen.DispatchConfig{Funcs: 5, Workers: 2, Sites: 2, Iters: 12}
	for seed := uint64(1); seed <= 12; seed++ {
		src := progen.GenerateDispatch(seed, cfg)
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		for _, sel := range []int64{0, 3, 7} {
			for _, v := range variants {
				v := v
				t.Run(fmt.Sprintf("seed%d/sel%d/%s", seed, sel, v.name), func(t *testing.T) {
					runDiffIn(t, prog, v, seed, []int64{sel, 9, 4})
				})
			}
		}
	}
}

// TestEngineTrapParity checks that every runtime trap (including
// deadlock and the unlock-of-non-pointer validation) produces the
// identical error string under both engines.
func TestEngineTrapParity(t *testing.T) {
	cases := []string{
		`func main() { var p = 5; print(*p); }`,
		`func main() { var p = alloc(2); print(p[5]); }`,
		`func main() { var p = alloc(2); print(p[0-1]); }`,
		`func main() { lock(7); }`,
		`func main() { unlock(7); }`,
		`global m = 0; func main() { unlock(&m); }`,
		`global m = 0; func main() { lock(&m); lock(&m); }`,
		`func main() { join(0); }`,
		`func main() { join(99); }`,
		`func main() { var p = alloc(0 - 1); }`,
		`func f() {} func main() { var x = 3; x(); }`,
		`func f(a) {} func main() { var g = f; g(); }`,
		`global a = 0;
		 global b = 0;
		 func w() { lock(&b); lock(&a); unlock(&a); unlock(&b); }
		 func main() { lock(&a); var t = spawn w(); lock(&b); unlock(&b); unlock(&a); join(t); }`,
	}
	for i, src := range cases {
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("case %d: compile: %v", i, err)
		}
		run := func(engine interp.EngineKind) string {
			_, err := interp.Run(interp.Config{Prog: prog, Engine: engine})
			if err == nil {
				return ""
			}
			return err.Error()
		}
		treeErr := run(interp.EngineTree)
		compErr := run(interp.EngineCompiled)
		if treeErr == "" {
			t.Errorf("case %d: no error from tree engine", i)
			continue
		}
		if treeErr != compErr {
			t.Errorf("case %d: error diverged:\n tree: %q\n comp: %q", i, treeErr, compErr)
		}
	}
}

// TestEngineCodeReuse runs one precompiled image repeatedly (the
// analysis-server usage pattern) and checks the runs stay identical
// and independent.
func TestEngineCodeReuse(t *testing.T) {
	src := progen.Generate(42, progen.DefaultConfig())
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	code := interp.Compile(prog, interp.Masks{})
	var first *interp.Result
	for i := 0; i < 3; i++ {
		r := &recorder{}
		res, err := interp.Run(interp.Config{
			Prog:     prog,
			Tracer:   r,
			Code:     code,
			Choose:   sched.NewSeeded(9),
			MaxSteps: diffMaxSteps,
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if first == nil {
			first = res
			continue
		}
		if fmt.Sprint(res.Output) != fmt.Sprint(first.Output) || res.Stats != first.Stats {
			t.Fatalf("run %d diverged from first", i)
		}
	}
}

// TestEngineCodeMismatch checks that installing an image compiled from
// a different program is rejected rather than misexecuted.
func TestEngineCodeMismatch(t *testing.T) {
	p1, err := lang.Compile(`func main() { print(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := lang.Compile(`func main() { print(2); }`)
	if err != nil {
		t.Fatal(err)
	}
	code := interp.Compile(p1, interp.Masks{})
	_, err = interp.Run(interp.Config{Prog: p2, Code: code})
	if err == nil || !strings.Contains(err.Error(), "different program") {
		t.Fatalf("err = %v, want code/program mismatch", err)
	}
}

// TestMasksDigest checks the digest distinguishes the configurations
// that compile differently — including nil vs all-false Exec masks,
// which differ semantically.
func TestMasksDigest(t *testing.T) {
	prog, err := lang.Compile(`func main() { print(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	n := len(prog.Instrs)
	base := interp.Masks{}
	if base.Digest() != (interp.Masks{}).Digest() {
		t.Error("digest is not deterministic")
	}
	distinct := []interp.Masks{
		{},
		{Mem: make([]bool, n)},
		{Sync: make([]bool, n)},
		{Exec: make([]bool, n)},
		{ExecAll: true},
		{Mem: altMask(n, 0)},
		{Mem: altMask(n, 1)},
	}
	seen := map[string]int{}
	for i, m := range distinct {
		d := m.Digest()
		if j, dup := seen[d]; dup {
			t.Errorf("masks %d and %d collide", i, j)
		}
		seen[d] = i
	}
}
