package dynslice

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/sched"
	"oha/internal/vc"
	"oha/internal/workloads"
)

// recycleRun is one execution of the recycled-equals-fresh sequence.
type recycleRun struct {
	name   string
	prog   *ir.Program
	inputs []int64
	seed   uint64
	// trace selects the traced instructions: every one (traceAll), the
	// sound static slice of the last print (traceStatic), or every third
	// (traceSparse, which leaves calls untraced whose Call events the
	// slicer still sees).
	trace int
	// maxNodes, when non-zero, bounds the trace.
	maxNodes int
	// abortAtCall, when non-zero, raises the abort flag on that Call
	// event, as an invariant checker does on a violation.
	abortAtCall int
}

const (
	traceAll = iota
	traceStatic
	traceSparse
)

// violator is an invariant checker stand-in: it forwards every event
// to the slicer and raises the abort flag on the n-th Call, leaving the
// slicer's stacks, rows and pending bindings mid-flight.
type violator struct {
	*Tracer
	abort *interp.Abort
	calls int
	at    int
}

func (v *violator) Call(t vc.TID, in *ir.Instr, callee *ir.Function, caller, calleeFrame interp.FrameID) {
	v.Tracer.Call(t, in, callee, caller, calleeFrame)
	if v.calls++; v.calls == v.at {
		v.abort.Set("callee outside its likely set")
	}
}

// runOutcome is everything a run leaves observable.
type runOutcome struct {
	Err        string
	Stats      interp.Stats
	IC         interp.ICStats
	NodeCount  int
	Overflowed bool
	Slices     []*Slice
	AllLast    *Slice
	State      tracerState
}

// tracerState is the tracer's content up to each table's length, with
// nil and empty rows alike and trailing empty rows dropped: two tracers
// with equal states answer every later event and query alike. Row
// lengths are kept exactly.
type tracerState struct {
	Nodes        []node
	Deps         []int32
	Rows         [][]int32
	FreeRows     []int32
	Stacks       [][]activation
	Retiring     activation
	LastMem      [][]int32
	LastInstance []int32
	PendingCall  callBinding
	PendingRet   retBinding
	MaxNodes     int
	Full         bool
}

func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func rowsOf[T any](rows [][]T) [][]T {
	out := make([][]T, len(rows))
	for i, r := range rows {
		out[i] = orNil(r)
	}
	for len(out) > 0 && out[len(out)-1] == nil {
		out = out[:len(out)-1]
	}
	return orNil(out)
}

func stateOf(tr *Tracer) tracerState {
	return tracerState{
		Nodes:        orNil(tr.nodes),
		Deps:         orNil(tr.deps),
		Rows:         rowsOf(tr.rows),
		FreeRows:     orNil(tr.freeRows),
		Stacks:       rowsOf(tr.stacks),
		Retiring:     tr.retiring,
		LastMem:      rowsOf(tr.lastMem),
		LastInstance: orNil(tr.lastInstance),
		PendingCall:  tr.pendingCall,
		PendingRet:   tr.pendingRet,
		MaxNodes:     tr.MaxNodes,
		Full:         tr.full,
	}
}

// execute runs r under tr, wired the way the core slicers wire it.
func (r recycleRun) execute(t *testing.T, tr *Tracer, abort *interp.Abort) runOutcome {
	t.Helper()
	if r.maxNodes > 0 {
		tr.MaxNodes = r.maxNodes
	}
	var tracer interp.Tracer = tr
	if r.abortAtCall > 0 {
		tracer = &violator{Tracer: tr, abort: abort, at: r.abortAtCall}
	}
	cfg := interp.Config{
		Prog: r.prog, Inputs: r.inputs, Choose: sched.NewSeeded(r.seed), Tracer: tracer, Abort: abort,
		Masks: interp.Masks{Mem: []bool{}, Sync: []bool{}, Block: make([]bool, len(r.prog.Blocks))}, MaxSteps: 2_000_000,
	}
	switch r.trace {
	case traceAll:
		cfg.Masks.ExecAll = true
	case traceStatic:
		cfg.Masks.Exec = staticMask(t, r.prog)
	case traceSparse:
		cfg.Masks.Exec = make([]bool, len(r.prog.Instrs))
		for i := range cfg.Masks.Exec {
			cfg.Masks.Exec[i] = i%3 == 0
		}
	}
	res, err := interp.Run(cfg)
	out := runOutcome{Stats: res.Stats, IC: res.IC, NodeCount: tr.NodeCount(), Overflowed: tr.Overflowed(), State: stateOf(tr)}
	if err != nil {
		out.Err = err.Error()
	}
	for _, c := range criteria(r.prog) {
		out.Slices = append(out.Slices, tr.Slice(c))
	}
	out.AllLast = tr.SliceAllInstances(lastPrint(t, r.prog))
	return out
}

// recycleSequence alternates small generated programs with the slicing
// workloads, so consecutive runs differ in program size (lastInstance
// must resize both ways), and places an aborted run mid-call-stack and
// trace-limit overflows between ordinary runs. A program without calls
// follows every workload: a call binding left pending by an untraced
// call would survive its whole run.
func recycleSequence() []recycleRun {
	straight := recycleRun{name: "straight", prog: lang.MustCompile(`
		global g = 0;
		func main() {
			var i = 0;
			while (i < input(0)) { g = g + i; i = i + 1; }
			print(g);
		}
	`), inputs: []int64{20}, seed: 1}
	var gen []recycleRun
	for seed := uint64(0); seed < 3; seed++ {
		for _, f := range []struct {
			name string
			src  string
		}{
			{"default", progen.Generate(seed, progen.DefaultConfig())},
			{"dispatch", progen.GenerateDispatch(seed, progen.DefaultDispatchConfig())},
			{"nullable", progen.GenerateNullable(seed, progen.DefaultNullableConfig())},
		} {
			gen = append(gen, recycleRun{
				name: fmt.Sprintf("%s/%d", f.name, seed), prog: lang.MustCompile(f.src),
				inputs: []int64{3, 1, 4, 1, 5, 9, 2, 6}, seed: seed + 1, trace: int(seed % 3),
			})
		}
	}
	var ws []recycleRun
	for i, w := range workloads.Slices() {
		ws = append(ws, recycleRun{name: w.Name, prog: w.Prog(), inputs: w.GenInput(1000 + i), seed: uint64(2000 + i), trace: i % 3})
	}
	var seq []recycleRun
	for i := 0; i < len(gen) || i < len(ws); i++ {
		if i < len(ws) {
			seq = append(seq, ws[i], straight)
		}
		if i < len(gen) {
			seq = append(seq, gen[i])
		}
		switch i {
		case 1:
			r := ws[len(ws)-2] // perl: deep call chains
			r.name += "/abort"
			r.abortAtCall = 5
			seq = append(seq, r)
		case 3:
			r := ws[0]
			r.name += "/overflow"
			r.trace, r.maxNodes = traceAll, 300
			seq = append(seq, r)
		case 5:
			r := ws[1]
			r.name += "/overflow"
			r.trace, r.maxNodes = traceAll, 40
			seq = append(seq, r)
		}
	}
	return seq
}

// A tracer recycled through a sequence of runs must answer each run
// exactly as a tracer that never ran: same errors, counts and slices,
// and the same trace state afterwards.
func TestRecycledTracerEqualsFresh(t *testing.T) {
	seq := recycleSequence()
	rec := &Tracer{}
	overflows, aborts := 0, 0
	for _, r := range seq {
		fresh := &Tracer{}
		freshAbort := &interp.Abort{}
		fresh.reset(r.prog, freshAbort)
		want := r.execute(t, fresh, freshAbort)

		abort := &interp.Abort{}
		rec.reset(r.prog, abort)
		got := r.execute(t, rec, abort)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recycled run differs from a fresh one:\n got %+v\nwant %+v", r.name, got, want)
		}
		if want.Overflowed {
			overflows++
		}
		if r.abortAtCall > 0 && want.Err != "" {
			aborts++
		}
	}
	if overflows != 2 || aborts != 1 {
		t.Fatalf("sequence had %d overflowing and %d aborted runs, want 2 and 1", overflows, aborts)
	}
}

// MaxNodes 0 stands for defaultMaxNodes: a tracer whose bound is set
// to 0 explicitly traces as one whose bound was never set.
func TestZeroMaxNodesIsDefault(t *testing.T) {
	p := lang.MustCompile(`
		func main() {
			var i = 0;
			while (i < 100) { i = i + 1; }
			print(i);
		}
	`)
	ab := &interp.Abort{}
	tr := New(p, ab)
	tr.MaxNodes = 0
	_, err := interp.Run(interp.Config{
		Prog: p, Tracer: tr, Abort: ab,
		Masks: interp.Masks{Block: make([]bool, len(p.Blocks)), ExecAll: true},
	})
	if errors.Is(err, interp.ErrAborted) || tr.Overflowed() {
		t.Fatalf("MaxNodes 0 aborted the trace: err = %v", err)
	}
	if tr.NodeCount() < 100 {
		t.Fatalf("NodeCount = %d, want the whole loop traced", tr.NodeCount())
	}
}
