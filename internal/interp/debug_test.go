package interp_test

import (
	"strings"
	"testing"

	"oha/internal/interp"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/sched"
)

// TestSessionStepParity single-steps a program to completion and
// requires the exact output and step count of a normal compiled run
// under the same seeded scheduler and Quantum 1 (which is what a
// Session forces).
func TestSessionStepParity(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() interp.Config {
			return interp.Config{
				Prog:     prog,
				Engine:   interp.EngineCompiled,
				Choose:   sched.NewSeeded(seed),
				Quantum:  1,
				MaxSteps: diffMaxSteps,
			}
		}
		res, runErr := interp.Run(mk())

		s, err := interp.NewSession(mk())
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := s.Step(); !ok {
				break
			}
			if s.Steps() > diffMaxSteps+1 {
				t.Fatal("session did not terminate")
			}
		}
		if (runErr == nil) != (s.Err() == nil) {
			t.Fatalf("seed %d: errors diverged: run=%v session=%v", seed, runErr, s.Err())
		}
		if runErr != nil {
			if runErr.Error() != s.Err().Error() {
				t.Fatalf("seed %d: error text diverged: %q vs %q", seed, runErr, s.Err())
			}
			continue
		}
		if got, want := s.Output(), res.Output; len(got) != len(want) {
			t.Fatalf("seed %d: output diverged: %v vs %v", seed, got, want)
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: output diverged at %d", seed, i)
				}
			}
		}
		if s.Steps() != res.Stats.Steps {
			t.Fatalf("seed %d: step count diverged: %d vs %d", seed, s.Steps(), res.Stats.Steps)
		}
	}
}

// TestSessionBreakpoints checks line breakpoints stop Continue on the
// right source line and Regs/Threads answer while paused.
func TestSessionBreakpoints(t *testing.T) {
	prog, err := lang.Compile(`global g = 0;
func main() {
	var i = 0;
	while (i < 3) {
		g = g + i;
		i = i + 1;
	}
	print(g);
}`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := interp.NewSession(interp.Config{Prog: prog, Engine: interp.EngineCompiled})
	if err != nil {
		t.Fatal(err)
	}
	if s.Break(999) {
		t.Fatal("breakpoint on a line with no instructions reported found")
	}
	if !s.Break(5) { // g = g + i;
		t.Fatal("breakpoint on line 5 not found")
	}
	hits := 0
	for {
		loc, ok := s.Continue()
		if !ok {
			break
		}
		if loc.Line != 5 {
			t.Fatalf("stopped on line %d, want 5", loc.Line)
		}
		hits++
		if _, err := s.Regs(loc.TID); err != nil {
			t.Fatalf("regs: %v", err)
		}
		if got := len(s.Threads()); got != 1 {
			t.Fatalf("threads = %d, want 1", got)
		}
		if hits > 10 {
			t.Fatal("breakpoint never exhausted")
		}
	}
	if s.Err() != nil {
		t.Fatalf("session error: %v", s.Err())
	}
	if hits != 3 {
		t.Fatalf("breakpoint hit %d times, want 3", hits)
	}
	if out := s.Output(); len(out) != 1 || out[0] != 3 {
		t.Fatalf("output = %v, want [3]", out)
	}
}

// TestDisasm smoke-checks the listing carries the annotations dump
// promises: flags column, IC seeds, fused runs, and source lines.
func TestDisasm(t *testing.T) {
	prog, err := lang.Compile(`global m = 0;
func f(a) { print(a); }
func main() {
	var g = f;
	lock(&m);
	var x = 1 + 2 * 3;
	unlock(&m);
	g(x);
}`)
	if err != nil {
		t.Fatal(err)
	}
	callees := calleesLikely(prog)
	code := interp.CompileWith(prog, interp.Masks{
		Sync: altMask(len(prog.Instrs), 0),
	}, interp.CompileOptions{Callees: callees})
	var sb strings.Builder
	if err := code.Disasm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"func main", "; line ", "fused{", "ic{", "; config "} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q\n%s", want, out)
		}
	}
	// A decoded image must disassemble identically.
	dec, err := interp.DecodeImage(prog, code.EncodeImage())
	if err != nil {
		t.Fatal(err)
	}
	var sb2 strings.Builder
	if err := dec.Disasm(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("decoded image disassembles differently")
	}

	// With every Mem event on, the fused loads and stores are listed as
	// event micro ops under fused heads carrying the M flag.
	memProg, err := lang.Compile(`global a = 0;
global b = 0;
func main() { a = a + 1; b = a * 2 + b; print(b); }`)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := interp.Compile(memProg, interp.Masks{}).Disasm(&sb); err != nil {
		t.Fatal(err)
	}
	evHead := false
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[1] == "M....." && f[2] == "run" {
			evHead = true
			if !strings.Contains(line, "fused{store.ev ") && !strings.Contains(line, "fused{load.ev ") {
				t.Errorf("M-flagged fused head does not start with an event micro op:\n%s", line)
			}
		}
	}
	if !evHead {
		t.Errorf("no fused head carries the M flag:\n%s", sb.String())
	}
}

// TestSessionShowsFusedMemEvents steps through fused runs whose loads
// and stores deliver Mem events: the stop location must report the
// head's M flag and its event-marked micro op, and an event-free fused
// head neither.
func TestSessionShowsFusedMemEvents(t *testing.T) {
	prog, err := lang.Compile(`global a = 0;
global b = 0;
func main() {
	var i = 0;
	while (i < 3) {
		a = a + i;
		b = b + a * 2;
		i = i + 1;
	}
	print(a + b);
}`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := interp.NewSession(interp.Config{Prog: prog, Tracer: &recorder{}})
	if err != nil {
		t.Fatal(err)
	}
	var evStops, plainStops int
	for {
		loc, ok := s.Loc()
		if !ok {
			break
		}
		if loc.Fused {
			ev := strings.HasSuffix(loc.Micro, ".ev")
			if ev != (loc.Events[0] == 'M') {
				t.Fatalf("pc %d: micro %q with flags %s", loc.PC, loc.Micro, loc.Events)
			}
			if ev {
				evStops++
			} else {
				plainStops++
			}
		} else if loc.Micro != "" {
			t.Fatalf("pc %d: unfused stop shows micro %q", loc.PC, loc.Micro)
		}
		if _, ok := s.Step(); !ok {
			break
		}
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if evStops == 0 || plainStops == 0 {
		t.Fatalf("stopped on %d event and %d event-free fused heads, want both", evStops, plainStops)
	}
}
