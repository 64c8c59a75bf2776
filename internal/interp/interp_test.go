package interp

import (
	"errors"
	"strings"
	"testing"

	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/sched"
	"oha/internal/vc"
)

func runSrc(t *testing.T, src string, inputs ...int64) *Result {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Run(Config{Prog: p, Inputs: inputs})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func wantOutput(t *testing.T, res *Result, want ...int64) {
	t.Helper()
	if len(res.Output) != len(want) {
		t.Fatalf("output %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Fatalf("output %v, want %v", res.Output, want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	res := runSrc(t, `
		func main() {
			print(2 + 3 * 4);
			print(10 / 3);
			print(10 % 3);
			print(7 / 0);
			print(7 % 0);
			print(1 << 4);
			print(256 >> 4);
			print(6 & 3);
			print(6 | 3);
			print(6 ^ 3);
			print(-5);
			print(!0 + !7);
			print((1 < 2) + (2 <= 2) + (3 > 4) + (4 >= 5) + (5 == 5) + (6 != 6));
		}
	`)
	wantOutput(t, res, 14, 3, 1, 0, 0, 16, 16, 2, 7, 5, -5, 1, 3)
}

func TestControlFlowAndLoops(t *testing.T) {
	res := runSrc(t, `
		func main() {
			var sum = 0;
			var i = 0;
			while (i < 10) {
				if (i % 2 == 0) { sum = sum + i; }
				i = i + 1;
			}
			print(sum);
		}
	`)
	wantOutput(t, res, 20)
}

func TestShortCircuitEvaluation(t *testing.T) {
	res := runSrc(t, `
		global calls = 0;
		func bump() { calls = calls + 1; return 1; }
		func main() {
			var a = 0 && bump();
			var b = 1 || bump();
			var c = 1 && bump();
			var d = 0 || bump();
			print(a); print(b); print(c); print(d);
			print(calls);
		}
	`)
	wantOutput(t, res, 0, 1, 1, 1, 2)
}

func TestFunctionsAndRecursion(t *testing.T) {
	res := runSrc(t, `
		func fib(n) {
			if (n < 2) { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		func main() { print(fib(12)); }
	`)
	wantOutput(t, res, 144)
}

func TestPointersAndHeap(t *testing.T) {
	res := runSrc(t, `
		func main() {
			var p = alloc(4);
			var i = 0;
			while (i < 4) { p[i] = i * i; i = i + 1; }
			print(p[0] + p[1] + p[2] + p[3]);
			var x = 5;
			var q = &x;
			*q = *q + 2;
			print(x);
		}
	`)
	wantOutput(t, res, 14, 7)
}

func TestGlobalArrayLayout(t *testing.T) {
	res := runSrc(t, `
		global tab[4];
		func main() {
			var i = 0;
			while (i < 4) { tab[i] = 10 + i; i = i + 1; }
			// Address arithmetic across the array.
			var p = &tab;
			print(p[3]);
			print(tab[0]);
		}
	`)
	wantOutput(t, res, 13, 10)
}

func TestIndirectCalls(t *testing.T) {
	res := runSrc(t, `
		global fp = 0;
		func inc(x) { return x + 1; }
		func dbl(x) { return x * 2; }
		func main() {
			fp = inc;
			print(fp(10));
			fp = dbl;
			print(fp(10));
		}
	`)
	wantOutput(t, res, 11, 20)
}

func TestInputs(t *testing.T) {
	res := runSrc(t, `
		func main() {
			var n = ninputs();
			var sum = 0;
			var i = 0;
			while (i < n) { sum = sum + input(i); i = i + 1; }
			print(sum);
			print(input(99));
		}
	`, 5, 6, 7)
	wantOutput(t, res, 18, 0)
}

func TestThreadsAndJoin(t *testing.T) {
	res := runSrc(t, `
		global counter = 0;
		global m = 0;
		func worker(n) {
			var i = 0;
			while (i < n) {
				lock(&m);
				counter = counter + 1;
				unlock(&m);
				i = i + 1;
			}
		}
		func main() {
			var t1 = spawn worker(100);
			var t2 = spawn worker(100);
			join(t1);
			join(t2);
			print(counter);
		}
	`)
	wantOutput(t, res, 200)
	if res.Threads != 3 {
		t.Errorf("threads = %d, want 3", res.Threads)
	}
}

func TestMutualExclusionUnderAdversarialSchedules(t *testing.T) {
	// Locked increments must never be lost, whatever the interleaving.
	p, err := lang.Compile(`
		global c = 0;
		global m = 0;
		func w() {
			var i = 0;
			while (i < 50) {
				lock(&m);
				var tmp = c;
				c = tmp + 1;
				unlock(&m);
				i = i + 1;
			}
		}
		func main() {
			var a = spawn w();
			var b = spawn w();
			join(a); join(b);
			print(c);
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 10; seed++ {
		res, err := Run(Config{Prog: p, Choose: sched.NewSeeded(seed), Quantum: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Output[0] != 100 {
			t.Fatalf("seed %d: lost updates, c = %d", seed, res.Output[0])
		}
	}
}

func TestUnsynchronizedRaceLosesUpdates(t *testing.T) {
	// Sanity-check that the scheduler actually interleaves: an
	// unlocked read-modify-write with quantum 1 must lose updates
	// under some seed.
	p, err := lang.Compile(`
		global c = 0;
		func w() {
			var i = 0;
			while (i < 20) {
				var tmp = c;
				c = tmp + 1;
				i = i + 1;
			}
		}
		func main() {
			var a = spawn w();
			var b = spawn w();
			join(a); join(b);
			print(c);
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	lost := false
	for seed := uint64(1); seed <= 20; seed++ {
		res, err := Run(Config{Prog: p, Choose: sched.NewSeeded(seed), Quantum: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Output[0] != 40 {
			lost = true
		}
	}
	if !lost {
		t.Error("no schedule lost updates; scheduler not interleaving?")
	}
}

func TestDeterminism(t *testing.T) {
	p, err := lang.Compile(`
		global c = 0;
		func w(n) {
			var i = 0;
			while (i < n) { c = c + i; i = i + 1; }
			print(c);
		}
		func main() {
			var a = spawn w(30);
			var b = spawn w(40);
			join(a); join(b);
			print(c);
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(Config{Prog: p, Choose: sched.NewSeeded(3), Quantum: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Run(Config{Prog: p, Choose: sched.NewSeeded(3), Quantum: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Output) != len(first.Output) {
			t.Fatal("output length diverged")
		}
		for j := range first.Output {
			if again.Output[j] != first.Output[j] {
				t.Fatalf("run %d diverged at output %d", i, j)
			}
		}
		if again.Stats.Steps != first.Stats.Steps {
			t.Fatalf("step count diverged: %d vs %d", again.Stats.Steps, first.Stats.Steps)
		}
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`func main() { var p = 5; print(*p); }`, "non-pointer"},
		{`func main() { var p = alloc(2); print(p[5]); }`, "out-of-bounds"},
		{`func main() { var p = alloc(2); print(p[0-1]); }`, "out-of-bounds"},
		{`func main() { lock(7); }`, "lock of non-pointer"},
		{`global m = 0; func main() { unlock(&m); }`, "not held"},
		{`global m = 0; func main() { lock(&m); lock(&m); }`, "recursive lock"},
		{`func main() { join(0); }`, "join of invalid"},
		{`func main() { join(99); }`, "join of invalid"},
		{`func main() { var p = alloc(0 - 1); }`, "bad allocation"},
		{`func f() {} func main() { var x = 3; x(); }`, "non-function"},
		{`func f(a) {} func main() { var g = f; g(); }`, "want 1"},
	}
	for _, c := range cases {
		p, err := lang.Compile(c.src)
		if err != nil {
			t.Fatalf("compile %q: %v", c.src, err)
		}
		_, err = Run(Config{Prog: p})
		if err == nil {
			t.Errorf("no trap for %q", c.src)
			continue
		}
		var re *RuntimeError
		if !errors.As(err, &re) {
			t.Errorf("trap for %q has type %T", c.src, err)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("trap %q, want substring %q", err, c.frag)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	p, err := lang.Compile(`
		global a = 0;
		global b = 0;
		func w() { lock(&b); lock(&a); unlock(&a); unlock(&b); }
		func main() {
			lock(&a);
			var t = spawn w();
			// Give w a chance to grab b, then block on it.
			lock(&b);
			unlock(&b);
			unlock(&a);
			join(t);
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	deadlocked := false
	for seed := uint64(1); seed <= 30; seed++ {
		_, err := Run(Config{Prog: p, Choose: sched.NewSeeded(seed), Quantum: 1})
		if errors.Is(err, ErrDeadlock) {
			deadlocked = true
			break
		}
	}
	if !deadlocked {
		t.Error("classic lock-order inversion never deadlocked in 30 schedules")
	}
}

func TestStepLimit(t *testing.T) {
	p, err := lang.Compile(`func main() { while (1) { } }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Prog: p, MaxSteps: 1000})
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want step limit", err)
	}
}

// countingTracer counts events and records block entries.
type countingTracer struct {
	NopTracer
	loads, stores, locks, unlocks int
	spawns, joins                 int
	blocks                        []int
	execs                         int
}

func (c *countingTracer) Load(vc.TID, *ir.Instr, Addr, int64)  { c.loads++ }
func (c *countingTracer) Store(vc.TID, *ir.Instr, Addr, int64) { c.stores++ }
func (c *countingTracer) Lock(vc.TID, *ir.Instr, Addr)         { c.locks++ }
func (c *countingTracer) Unlock(vc.TID, *ir.Instr, Addr)       { c.unlocks++ }
func (c *countingTracer) Spawn(vc.TID, *ir.Instr, vc.TID, FrameID, *ir.Function) {
	c.spawns++
}
func (c *countingTracer) Join(vc.TID, *ir.Instr, vc.TID) { c.joins++ }
func (c *countingTracer) BlockEnter(_ vc.TID, b *ir.Block) {
	c.blocks = append(c.blocks, b.ID)
}
func (c *countingTracer) Exec(vc.TID, *ir.Instr, FrameID, Addr) { c.execs++ }

const tracedSrc = `
	global g = 0;
	global m = 0;
	func w() {
		lock(&m);
		g = g + 1;
		unlock(&m);
	}
	func main() {
		var t = spawn w();
		lock(&m);
		g = g + 10;
		unlock(&m);
		join(t);
		print(g);
	}
`

func TestTracerEvents(t *testing.T) {
	p, err := lang.Compile(tracedSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{}
	res, err := Run(Config{Prog: p, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	wantOutput(t, res, 11)
	// Global accesses: each `g = g + k` is 1 load + 1 store; the print
	// loads once. Locks: 2 lock + 2 unlock. Spawn/join once each.
	if tr.loads != 3 || tr.stores != 2 {
		t.Errorf("loads=%d stores=%d, want 3/2", tr.loads, tr.stores)
	}
	if tr.locks != 2 || tr.unlocks != 2 {
		t.Errorf("locks=%d unlocks=%d, want 2/2", tr.locks, tr.unlocks)
	}
	if tr.spawns != 1 || tr.joins != 1 {
		t.Errorf("spawns=%d joins=%d", tr.spawns, tr.joins)
	}
	if len(tr.blocks) == 0 {
		t.Error("no block events with nil mask")
	}
	if tr.execs != 0 {
		t.Error("exec events delivered without ExecAll")
	}
	if res.Stats.Loads != 3 || res.Stats.Locks != 2 {
		t.Errorf("stats mismatch: %+v", res.Stats)
	}
}

func TestInstrumentationMasks(t *testing.T) {
	p, err := lang.Compile(tracedSrc)
	if err != nil {
		t.Fatal(err)
	}
	// All masks empty (non-nil): no load/store/lock/unlock/block events.
	tr := &countingTracer{}
	_, err = Run(Config{
		Prog:   p,
		Tracer: tr,
		Masks: Masks{
			Mem:   make([]bool, len(p.Instrs)),
			Sync:  make([]bool, len(p.Instrs)),
			Block: make([]bool, len(p.Blocks)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.loads+tr.stores+tr.locks+tr.unlocks != 0 {
		t.Errorf("masked events delivered: %+v", tr)
	}
	if len(tr.blocks) != 0 {
		t.Error("masked block events delivered")
	}
	// Spawn/join are always on.
	if tr.spawns != 1 || tr.joins != 1 {
		t.Errorf("spawn/join masked: %+v", tr)
	}

	// Selective mask: only the store instructions.
	mem := make([]bool, len(p.Instrs))
	for _, in := range p.Instrs {
		if in.Op == ir.OpStore {
			mem[in.ID] = true
		}
	}
	tr2 := &countingTracer{}
	_, err = Run(Config{Prog: p, Tracer: tr2, Masks: Masks{Mem: mem,
		Sync:  make([]bool, len(p.Instrs)),
		Block: make([]bool, len(p.Blocks))}})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.loads != 0 || tr2.stores != 2 {
		t.Errorf("selective mem mask: loads=%d stores=%d", tr2.loads, tr2.stores)
	}
}

func TestExecFirehose(t *testing.T) {
	p, err := lang.Compile(`func main() { var i = 0; while (i < 5) { i = i + 1; } }`)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{}
	res, err := Run(Config{Prog: p, Tracer: tr, Masks: Masks{ExecAll: true,
		Block: make([]bool, len(p.Blocks))}})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(tr.execs) != res.Stats.Steps {
		t.Errorf("execs=%d steps=%d", tr.execs, res.Stats.Steps)
	}
}

func TestAbort(t *testing.T) {
	p, err := lang.Compile(`func main() { var i = 0; while (1) { i = i + 1; print(i); } }`)
	if err != nil {
		t.Fatal(err)
	}
	ab := &Abort{}
	tr := &abortAfter{abort: ab, n: 3}
	res, err := Run(Config{Prog: p, Tracer: tr, Masks: Masks{ExecAll: true}, Abort: ab})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want abort", err)
	}
	if !strings.Contains(err.Error(), "test-reason") {
		t.Errorf("abort reason lost: %v", err)
	}
	if len(res.Output) > 5 {
		t.Errorf("abort was slow: %d outputs", len(res.Output))
	}
}

type abortAfter struct {
	NopTracer
	abort *Abort
	n     int
}

func (a *abortAfter) Exec(_ vc.TID, in *ir.Instr, _ FrameID, _ Addr) {
	if in.Op == ir.OpPrint {
		a.n--
		if a.n <= 0 {
			a.abort.Set("test-reason")
		}
	}
}

func TestValueEncoding(t *testing.T) {
	a := MakeAddr(3, 17)
	if !IsPtr(a) || IsFunc(a) {
		t.Error("addr tags wrong")
	}
	obj, off := DecodeAddr(a)
	if obj != 3 || off != 17 {
		t.Errorf("decode = %d,%d", obj, off)
	}
	f := MakeFunc(9)
	if !IsFunc(f) || IsPtr(f) {
		t.Error("func tags wrong")
	}
	if DecodeFunc(f) != 9 {
		t.Error("func id wrong")
	}
	if IsPtr(42) || IsFunc(42) || IsPtr(-42) {
		t.Error("small ints tagged")
	}
	for _, v := range []int64{0, -7, a, f} {
		if FormatValue(v) == "" {
			t.Error("empty FormatValue")
		}
	}
}
