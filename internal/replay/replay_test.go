package replay

import (
	"errors"
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/sched"
	"oha/internal/vc"
)

const racySrc = `
	global c = 0;
	global m = 0;
	func w(n) {
		var i = 0;
		while (i < n) {
			lock(&m);
			c = c + i;
			unlock(&m);
			i = i + 1;
		}
		print(c);
	}
	func main() {
		var a = spawn w(20);
		var b = spawn w(30);
		join(a);
		join(b);
		print(c);
	}
`

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameOutput(a, b *interp.Result) bool {
	if len(a.Output) != len(b.Output) {
		return false
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return false
		}
	}
	return true
}

func TestRecordThenReplayIsEquivalent(t *testing.T) {
	p := compile(t, racySrc)
	for seed := uint64(1); seed <= 5; seed++ {
		orig, schedRec, err := Record(interp.Config{
			Prog: p, Choose: sched.NewSeeded(seed), Quantum: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(interp.Config{Prog: p, Quantum: 2}, schedRec, nil)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if !sameOutput(orig, rep) {
			t.Fatalf("seed %d: replay output %v != original %v", seed, rep.Output, orig.Output)
		}
		if rep.Stats.Steps != orig.Stats.Steps {
			t.Fatalf("seed %d: step counts differ", seed)
		}
	}
}

// Replaying under different instrumentation must not perturb the
// execution — the core property that makes rollback sound.
func TestReplayUnderInstrumentationIsEquivalent(t *testing.T) {
	p := compile(t, racySrc)
	orig, schedRec, err := Record(interp.Config{
		Prog: p, Choose: sched.NewSeeded(42), Quantum: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &countTracer{}
	rep, err := Replay(interp.Config{Prog: p, Quantum: 3, Tracer: tr, Masks: interp.Masks{ExecAll: true}}, schedRec, nil)
	if err != nil {
		t.Fatalf("instrumented replay: %v", err)
	}
	if !sameOutput(orig, rep) {
		t.Fatalf("instrumented replay diverged: %v vs %v", rep.Output, orig.Output)
	}
	if tr.events == 0 {
		t.Error("instrumented replay delivered no events")
	}
}

type countTracer struct {
	interp.NopTracer
	events int
}

func (c *countTracer) Exec(vc.TID, *ir.Instr, interp.FrameID, interp.Addr) { c.events++ }

func TestReplayDivergenceReported(t *testing.T) {
	p := compile(t, racySrc)
	_, schedRec, err := Record(interp.Config{
		Prog: p, Choose: sched.NewSeeded(1), Quantum: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the schedule: replay must run out of decisions.
	short := sched.Schedule{Choices: schedRec.Choices[:len(schedRec.Choices)/2]}
	_, err = Replay(interp.Config{Prog: p, Quantum: 2}, short, nil)
	var de *sched.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DivergenceError", err)
	}
}

// A truncated schedule with a tail chooser models rollback after an
// abort: the prefix replays exactly, the tail continues the run.
func TestPrefixReplayWithTail(t *testing.T) {
	p := compile(t, racySrc)
	full, schedRec, err := Record(interp.Config{
		Prog: p, Choose: sched.NewSeeded(7), Quantum: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	half := sched.Schedule{Choices: schedRec.Choices[:len(schedRec.Choices)/2]}
	// The tail chooser must continue from where the recorded seeded
	// chooser would be. Easiest equivalent: a fresh seeded chooser
	// fast-forwarded by re-recording; here we exploit determinism and
	// replay the *other half* as the tail.
	tail := sched.NewReplayer(sched.Schedule{Choices: schedRec.Choices[len(schedRec.Choices)/2:]})
	rep, err := Replay(interp.Config{Prog: p, Quantum: 2}, half, tail)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutput(full, rep) {
		t.Fatalf("prefix+tail replay diverged: %v vs %v", rep.Output, full.Output)
	}
}

// Determinism without explicit schedules: same seed, same behaviour —
// this is what the OHA rollback path relies on.
func TestSameSeedSameExecution(t *testing.T) {
	p := compile(t, racySrc)
	a, err := interp.Run(interp.Config{Prog: p, Choose: sched.NewSeeded(99), Quantum: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := interp.Run(interp.Config{Prog: p, Choose: sched.NewSeeded(99), Quantum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutput(a, b) {
		t.Fatal("same seed produced different executions")
	}
}
