package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"oha/internal/interp"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/sched"
	"oha/internal/workloads"
)

// fuzzEngineMaxSteps bounds every FuzzEngines run.
const fuzzEngineMaxSteps = 20_000

// FuzzEngines is the differential fuzzer of the two engines over
// MiniLang source. A source the compiler rejects is fine; a panic in
// lang.Compile or in either engine is a bug. A program that compiles
// runs on the tree-walker and on the compiled engine at the fuzzed
// quantum, scheduler seed and inputs, bounded by fuzzEngineMaxSteps
// steps, and the two must agree on output, stats (steps included) and
// error text. When bit 0 of mode is set both runs carry a recording
// tracer with every Mem, Sync and Block event on, and their event
// streams must agree too; bit 1 also turns on every Exec event. The
// seeds are the workload sources and generated programs of the
// default, dispatch and nullable families.
func FuzzEngines(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source, uint8(32), uint64(1), uint64(0x0403020108070605), uint8(1))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(progen.Generate(seed, progen.DefaultConfig()), uint8(seed), seed, seed*0x9e3779b97f4a7c15, uint8(seed%4))
		f.Add(progen.GenerateDispatch(seed, progen.DefaultDispatchConfig()), uint8(3), seed, seed, uint8(0))
		f.Add(progen.GenerateNullable(seed, progen.DefaultNullableConfig()), uint8(5), seed, seed, uint8(1))
	}
	f.Fuzz(func(t *testing.T, src string, quantum uint8, seed, in uint64, mode uint8) {
		prog, err := lang.Compile(src)
		if err != nil {
			return
		}
		// Eight small inputs, one byte of in each.
		inputs := make([]int64, 8)
		for i := range inputs {
			inputs[i] = int64(in >> (8 * i) & 0x3f)
		}
		masks := interp.Masks{}
		if mode&2 != 0 {
			masks.ExecAll = true
		}
		run := func(engine interp.EngineKind) (*interp.Result, string, []string) {
			cfg := interp.Config{
				Prog:     prog,
				Engine:   engine,
				Inputs:   inputs,
				Masks:    masks,
				Choose:   sched.NewSeeded(seed),
				Quantum:  int(quantum%64) + 1,
				MaxSteps: fuzzEngineMaxSteps,
			}
			var rec *recorder
			if mode&1 != 0 {
				rec = &recorder{}
				cfg.Tracer = rec
			}
			res, err := interp.Run(cfg)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			if rec == nil {
				return res, msg, nil
			}
			return res, msg, rec.ev
		}
		tres, terr, tev := run(interp.EngineTree)
		cres, cerr, cev := run(interp.EngineCompiled)
		if terr != cerr {
			t.Fatalf("error diverged:\n tree: %q\n comp: %q", terr, cerr)
		}
		if fmt.Sprint(tres.Output) != fmt.Sprint(cres.Output) || tres.Stats != cres.Stats {
			t.Fatalf("diverged:\n tree: %v %+v\n comp: %v %+v", tres.Output, tres.Stats, cres.Output, cres.Stats)
		}
		if strings.Join(tev, "\n") != strings.Join(cev, "\n") {
			t.Fatalf("event streams diverged (%d vs %d events)", len(tev), len(cev))
		}
	})
}
