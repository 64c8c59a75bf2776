package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/sched"
	"oha/internal/workloads"
)

// pairTrapSrcs put an out-of-bounds access in the second half of a
// pair: a store, then a load, through an add of an index read from the
// input.
var pairTrapSrcs = []string{
	`func main() { var p = alloc(2); var i = input(0); p[i + 3] = i; print(i); }`,
	`func main() { var p = alloc(2); var i = input(0); var s = i * 2; s = s + p[i + 3]; print(s); }`,
}

// pairSplitMaxSteps bounds the step limits TestPairSplitParity sweeps:
// every limit from 1 to this, each a component boundary of the first
// fused runs a program executes.
const pairSplitMaxSteps = 160

// listing returns code's disassembly.
func listing(t *testing.T, code *interp.Code) string {
	t.Helper()
	var sb strings.Builder
	if err := code.Disasm(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestPairSplitParity runs programs rich in every pair shape (copy
// pairs, and address pairs with and without Mem events) at quanta 1-8
// with the step limit at every component boundary of their first runs,
// so that quantum and step budgets cut pairs between their halves, and
// out-of-bounds loads and stores trap in a pair's second half. The
// compiled engine must match the tree-walker in output, stats (steps
// included), events and error text.
func TestPairSplitParity(t *testing.T) {
	type program struct {
		name   string
		prog   *ir.Program
		inputs []int64
	}
	var progs []program
	for seed := uint64(1); seed <= 3; seed++ {
		p, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{fmt.Sprintf("progen%d", seed), p, nil})
	}
	for _, name := range []string{"lusearch", "xalan", "zlib"} {
		w := workloads.ByName(name)
		progs = append(progs, program{name, w.Prog(), w.GenInput(1000)})
	}
	for i, src := range pairTrapSrcs {
		p, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{fmt.Sprintf("trap%d", i), p, []int64{1}})
	}

	masks := []struct {
		name string
		m    func(*ir.Program) interp.Masks
	}{
		{"plain", func(*ir.Program) interp.Masks { return interp.Masks{Mem: []bool{}} }},
		{"mem", func(p *ir.Program) interp.Masks { return interp.Masks{Block: make([]bool, len(p.Blocks))} }},
	}
	shapes := map[string]bool{}
	for _, pg := range progs {
		for _, mk := range masks {
			m := mk.m(pg.prog)
			code := interp.Compile(pg.prog, m)
			lst := listing(t, code)
			if !strings.Contains(lst, ">") {
				t.Fatalf("%s/%s: image has no pair", pg.name, mk.name)
			}
			for _, s := range []string{"add>copy ", "sub>copy ", "add>load ", "add>load.ev ", "add>store ", "add>store.ev "} {
				if strings.Contains(lst, s) {
					shapes[s] = true
				}
			}
			for q := 1; q <= 8; q++ {
				for limit := uint64(1); limit <= pairSplitMaxSteps; limit++ {
					run := func(engine interp.EngineKind) (*interp.Result, string, []string) {
						rec := &recorder{}
						cfg := interp.Config{
							Prog:     pg.prog,
							Engine:   engine,
							Tracer:   rec,
							Masks:    m,
							Inputs:   pg.inputs,
							Choose:   sched.NewSeeded(uint64(q)),
							Quantum:  q,
							MaxSteps: limit,
						}
						if engine == interp.EngineCompiled {
							cfg.Code = code
						}
						res, err := interp.Run(cfg)
						msg := ""
						if err != nil {
							msg = err.Error()
						}
						return res, msg, rec.ev
					}
					tres, terr, tev := run(interp.EngineTree)
					cres, cerr, cev := run(interp.EngineCompiled)
					where := fmt.Sprintf("%s/%s quantum %d limit %d", pg.name, mk.name, q, limit)
					if terr != cerr {
						t.Fatalf("%s: error diverged:\n tree: %q\n comp: %q", where, terr, cerr)
					}
					if fmt.Sprint(tres.Output) != fmt.Sprint(cres.Output) || tres.Stats != cres.Stats {
						t.Fatalf("%s: diverged:\n tree: %v %+v\n comp: %v %+v", where, tres.Output, tres.Stats, cres.Output, cres.Stats)
					}
					if strings.Join(tev, "\n") != strings.Join(cev, "\n") {
						t.Fatalf("%s: event streams diverged (%d vs %d events)", where, len(tev), len(cev))
					}
				}
			}
		}
	}
	for _, s := range []string{"add>copy ", "add>load ", "add>load.ev ", "add>store ", "add>store.ev "} {
		if !shapes[s] {
			t.Errorf("no program's image has a %q pair", strings.TrimSpace(s))
		}
	}
}

// TestPairSplitRegisters single-steps each program of the pair-split
// set in two Sessions, over its fused image and over its unfused one,
// and compares the stepping thread's registers after every step. At a
// Session's quantum of 1 every pair is cut after its add or sub, so the
// second half must not have run: a copy pair that ran both halves early
// shows here and nowhere else, since a copy is repeated harmlessly when
// the next slice resumes at it.
func TestPairSplitRegisters(t *testing.T) {
	var progs []*ir.Program
	for seed := uint64(1); seed <= 3; seed++ {
		p, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, name := range []string{"lusearch", "xalan", "zlib"} {
		progs = append(progs, workloads.ByName(name).Prog())
	}
	for i, prog := range progs {
		open := func(fusion bool) *interp.Session {
			s, err := interp.NewSession(interp.Config{
				Prog:   prog,
				Code:   interp.CompileWith(prog, interp.Masks{}, interp.CompileOptions{DisableFusion: !fusion}),
				Inputs: []int64{3, 1, 4, 1, 5},
				Choose: sched.NewSeeded(uint64(i) + 1),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		fused, plain := open(true), open(false)
		for step := 0; step < 20_000 && !plain.Finished(); step++ {
			loc, ok := plain.Loc()
			if !ok {
				break
			}
			fused.Step()
			plain.Step()
			want, err := plain.Regs(loc.TID)
			if err != nil {
				continue // the step ended the thread
			}
			got, err := fused.Regs(loc.TID)
			if err != nil || fmt.Sprint(got[:len(want)]) != fmt.Sprint(want) {
				t.Fatalf("program %d step %d (pc %d, %s): t%d registers diverged (err %v):\n fused:   %v\n unfused: %v",
					i, step, loc.PC, loc.Instr, loc.TID, err, got, want)
			}
		}
		if fmt.Sprint(fused.Err()) != fmt.Sprint(plain.Err()) || fmt.Sprint(fused.Output()) != fmt.Sprint(plain.Output()) {
			t.Fatalf("program %d: fused session ended with %v %v, unfused with %v %v",
				i, fused.Output(), fused.Err(), plain.Output(), plain.Err())
		}
	}
}
