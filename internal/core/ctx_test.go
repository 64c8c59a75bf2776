package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"oha/internal/interp"
	"oha/internal/lang"
)

// spinSrc loops for input(0) iterations across two threads — long
// enough at large inputs that a context deadline fires mid-run.
const spinSrc = `
	global sum = 0;
	global l = 0;

	func work(n) {
		var i = 0;
		while (i < n) {
			lock(&l);
			sum = sum + 1;
			unlock(&l);
			i = i + 1;
		}
	}

	func main() {
		var n = input(0);
		var t = spawn work(n);
		work(n);
		join(t);
		print(sum);
	}
`

func TestRunCanceledContext(t *testing.T) {
	prog := lang.MustCompile(spinSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunFastTrack(prog, Execution{Inputs: []int64{1 << 30}, Seed: 1},
		RunOptions{Ctx: ctx})
	if !errors.Is(err, interp.ErrCanceled) {
		t.Fatalf("err = %v, want interp.ErrCanceled", err)
	}
}

func TestRunDeadlineStopsLongExecution(t *testing.T) {
	prog := lang.MustCompile(spinSrc)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunFastTrack(prog, Execution{Inputs: []int64{1 << 30}, Seed: 1},
		RunOptions{Ctx: ctx})
	if !errors.Is(err, interp.ErrCanceled) {
		t.Fatalf("err = %v, want interp.ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, expected well under the run length", elapsed)
	}
}

func TestProfileCanceledContext(t *testing.T) {
	prog := lang.MustCompile(spinSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ProfileWith(prog, func(run int) Execution {
		return Execution{Inputs: []int64{4}, Seed: uint64(run + 1)}
	}, ProfileOptions{MaxRuns: 8, Workers: 1, Ctx: ctx})
	if !errors.Is(err, interp.ErrCanceled) {
		t.Fatalf("err = %v, want interp.ErrCanceled", err)
	}
}

// TestValidateCustomSyncCanceledNothingElided: the deprecated
// ValidateCustomSync runs nothing, yet a canceled context still fails
// it as canceled, and it elides nothing profiling did not propose.
func TestValidateCustomSyncCanceledNothingElided(t *testing.T) {
	prog := lang.MustCompile(`
		global g = 0;
		func w() { g = g + 1; }
		func main() {
			var t = spawn w();
			join(t);
			print(g);
		}
	`)
	pr, err := Profile(prog, func(run int) Execution { return Execution{Seed: uint64(run + 1)} }, 4)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Pred.ElidableSyncs.IsEmpty() {
		t.Fatalf("test needs no proposed elisions, got %v", o.Pred.ElidableSyncs)
	}
	execs := []Execution{{Seed: 1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := o.ValidateCustomSync(execs, RunOptions{Ctx: ctx}); !errors.Is(err, interp.ErrCanceled) {
		t.Fatalf("err = %v, want interp.ErrCanceled", err)
	}
	if err := o.ValidateCustomSync(execs, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !o.DB.ElidableLocks.IsEmpty() {
		t.Fatalf("elisions %v, want none", o.DB.ElidableLocks)
	}
}

func TestNilCtxUnaffected(t *testing.T) {
	prog := lang.MustCompile(spinSrc)
	rep, err := RunFastTrack(prog, Execution{Inputs: []int64{3}, Seed: 1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Output) != 1 || rep.Output[0] != 6 {
		t.Fatalf("output = %v, want [6]", rep.Output)
	}
}
