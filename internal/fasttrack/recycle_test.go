package fasttrack

import (
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
	name    string
	prog    *ir.Program
	inputs  []int64
	seed    uint64
	quantum int
	// abortAtSpawn, when non-zero, raises the abort flag on that Spawn
	// event, as an invariant checker does on a violation.
	abortAtSpawn int
}

// violator is an invariant checker stand-in: it forwards every event
// to the detector and raises the abort flag on the n-th Spawn, leaving
// threads, locks and shadow rows mid-flight.
type violator struct {
	*Detector
	abort  *interp.Abort
	spawns int
	at     int
}

func (v *violator) Spawn(t vc.TID, in *ir.Instr, child vc.TID, f interp.FrameID, fn *ir.Function) {
	v.Detector.Spawn(t, in, child, f, fn)
	if v.spawns++; v.spawns == v.at {
		v.abort.Set("unexpected thread")
	}
}

// runOutcome is everything a run leaves observable.
type runOutcome struct {
	Err       string
	Stats     interp.Stats
	IC        interp.ICStats
	RaceKeys  []Key
	Races     []Race
	RacyAddrs []interp.Addr
	Checks    uint64
	State     detectorState
}

// detectorState is the detector's content up to each table's length,
// with nil and empty rows alike and trailing empty rows dropped; clocks
// compare by value. Row lengths are kept exactly: they decide where
// the engine's inline fast path applies.
type detectorState struct {
	Threads   []string
	Epochs    []vc.Epoch
	Locks     map[interp.Addr]string
	REp, WEp  [][]vc.Epoch
	RIn, WIn  [][]*ir.Instr
	Meta      [][]string
	Races     map[Key]Race
	RacyAddrs map[interp.Addr]bool
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

func clockString(c *vc.VC) string {
	if c == nil {
		return "nil"
	}
	return c.String()
}

func stateOf(d *Detector) detectorState {
	s := detectorState{
		Epochs:    orNil(d.epochs),
		Locks:     map[interp.Addr]string{},
		REp:       rowsOf(d.rEp),
		WEp:       rowsOf(d.wEp),
		RIn:       rowsOf(d.rIn),
		WIn:       rowsOf(d.wIn),
		Races:     d.races,
		RacyAddrs: d.racyAddrs,
	}
	for _, c := range d.threads {
		s.Threads = append(s.Threads, clockString(c))
	}
	for obj, row := range d.locks {
		for off, c := range row {
			if c != nil {
				s.Locks[interp.MakeAddr(obj, int64(off))] = clockString(c)
			}
		}
	}
	for a, c := range d.lockOv {
		s.Locks[a] = clockString(c)
	}
	meta := make([][]string, len(d.meta))
	for i, row := range d.meta {
		for _, m := range row {
			meta[i] = append(meta[i], clockString(m.rvc))
		}
	}
	s.Meta = rowsOf(meta)
	return s
}

// execute runs r under d with every site instrumented.
func (r recycleRun) execute(t *testing.T, d *Detector) runOutcome {
	t.Helper()
	abort := &interp.Abort{}
	var tracer interp.Tracer = d
	if r.abortAtSpawn > 0 {
		tracer = &violator{Detector: d, abort: abort, at: r.abortAtSpawn}
	}
	res, err := interp.Run(interp.Config{
		Prog: r.prog, Inputs: r.inputs, Choose: sched.NewSeeded(r.seed), Quantum: r.quantum,
		Tracer: tracer, Abort: abort, Masks: interp.Masks{Block: make([]bool, len(r.prog.Blocks))}, MaxSteps: 2_000_000,
	})
	out := runOutcome{
		Stats: res.Stats, IC: res.IC, RaceKeys: d.RaceKeys(), Races: d.Races(), RacyAddrs: d.RacyAddrs(),
		Checks: d.Checks, State: stateOf(d),
	}
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

// readShared inflates read clocks with concurrent readers; with a
// non-zero input a racing writer then collapses them, otherwise the
// run ends with them inflated.
const readShared = `
	global g = 0;
	global h = 0;
	func reader() { print(g + h); }
	func writer() { g = 9; h = 7; }
	func main() {
		var r1 = spawn reader();
		var r2 = spawn reader();
		var r3 = spawn reader();
		join(r1); join(r2); join(r3);
		if (input(0) > 0) {
			var w = spawn writer();
			var r4 = spawn reader();
			join(w); join(r4);
		}
	}
`

// recycleSequence alternates small generated programs with the race
// workloads, so consecutive runs differ in heap shape and thread count,
// and places a run aborted mid-flight and runs that inflate and
// collapse READ_SHARED clocks between ordinary runs.
func recycleSequence() []recycleRun {
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
				inputs: []int64{3, 1, 4, 1, 5, 9, 2, 6}, seed: seed + 1, quantum: 3,
			})
		}
	}
	shared := lang.MustCompile(readShared)
	gen = append(gen[:2:2], append([]recycleRun{
		{name: "shared/collapse", prog: shared, inputs: []int64{1}, seed: 5, quantum: 1},
		{name: "shared/inflated", prog: shared, inputs: []int64{0}, seed: 2, quantum: 1},
	}, gen[2:]...)...)
	var ws []recycleRun
	for i, w := range workloads.Races() {
		ws = append(ws, recycleRun{name: w.Name, prog: w.Prog(), inputs: w.GenInput(1000 + i), seed: uint64(2000 + i), quantum: 1 + 7*(i%2)})
	}
	var seq []recycleRun
	for i := 0; i < len(gen) || i < len(ws); i++ {
		if i < len(ws) {
			seq = append(seq, ws[i])
		}
		if i < len(gen) {
			seq = append(seq, gen[i])
		}
		if i == 4 {
			r := ws[0]
			r.name += "/abort"
			r.abortAtSpawn = 2
			seq = append(seq, r)
		}
	}
	return seq
}

// inflated reports whether a run left any READ_SHARED clock.
func (o runOutcome) inflated() bool {
	for _, row := range o.State.Meta {
		for _, c := range row {
			if c != "nil" {
				return true
			}
		}
	}
	return false
}

// A detector recycled through a sequence of runs must answer each run
// exactly as a detector that never ran: same races, checks, engine
// fast-path counts and shadow state.
func TestRecycledDetectorEqualsFresh(t *testing.T) {
	rec := newDetector()
	for _, r := range recycleSequence() {
		want := r.execute(t, newDetector())

		rec.reset()
		got := r.execute(t, rec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recycled run differs from a fresh one:\n got %+v\nwant %+v", r.name, got, want)
		}
		switch {
		case r.name == "shared/inflated" && !want.inflated():
			t.Fatalf("%s: no READ_SHARED clock left inflated", r.name)
		case r.name == "shared/collapse" && (want.inflated() || len(want.RaceKeys) == 0):
			t.Fatalf("%s: inflated clocks not collapsed by the racing write", r.name)
		case r.abortAtSpawn > 0 && want.Err == "":
			t.Fatalf("%s: run not aborted", r.name)
		}
	}
}
