package profile

import (
	"bytes"
	"fmt"
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/sched"
	"oha/internal/vc"
)

// countingCollector counts the BlockEnter calls that reach the
// collector; embedding keeps the collector's FastState, so the engine
// arms the same fast paths it would for the bare collector.
type countingCollector struct {
	*Collector
	calls uint64
}

func (c *countingCollector) BlockEnter(t vc.TID, b *ir.Block) {
	c.calls++
	c.Collector.BlockEnter(t, b)
}

// TestInlineBlockCoverageDropsNothing checks that the engine's inline
// block-coverage store (FastState.Blocks) loses no block entry: on
// every execution of the corpus the database text and
// Stats.BlockEvents are the same on the compiled image with the fast
// path armed, on a NoFastPath image, and under the tree-walker. Only
// the armed image settles entries without calling BlockEnter.
func TestInlineBlockCoverageDropsNothing(t *testing.T) {
	for _, c := range profCorpus(t) {
		masks := Masks(c.prog)
		configs := []struct {
			name   string
			code   *interp.Code
			engine interp.EngineKind
			inline bool
		}{
			{"armed", interp.Compile(c.prog, masks), interp.EngineCompiled, true},
			{"nofastpath", interp.CompileWith(c.prog, masks, interp.CompileOptions{DisableFastPath: true}), interp.EngineCompiled, false},
			{"tree", nil, interp.EngineTree, false},
		}
		for i, e := range c.execs {
			var want []byte
			var wantEvents uint64
			for k, cfg := range configs {
				col := &countingCollector{Collector: NewCollector(c.prog)}
				res, err := interp.Run(interp.Config{
					Prog: c.prog, Inputs: e.Inputs, Tracer: col, Choose: sched.NewSeeded(e.Seed),
					Masks: masks, Code: cfg.code, Engine: cfg.engine,
				})
				got := []byte("error: " + fmt.Sprint(err))
				if err == nil {
					got = dbBytes(t, col.Summarize())
				}
				switch {
				case cfg.inline && col.calls != 0:
					t.Errorf("%s run %d: %d BlockEnter calls with the coverage row armed", c.name, i, col.calls)
				case !cfg.inline && col.calls != res.Stats.BlockEvents:
					t.Errorf("%s run %d %s: %d BlockEnter calls, %d block events", c.name, i, cfg.name, col.calls, res.Stats.BlockEvents)
				}
				if k == 0 {
					want, wantEvents = got, res.Stats.BlockEvents
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s run %d: %s database differs from the armed image:\n got: %s\nwant: %s", c.name, i, cfg.name, got, want)
				}
				if res.Stats.BlockEvents != wantEvents {
					t.Errorf("%s run %d: %s counted %d block events, armed image %d", c.name, i, cfg.name, res.Stats.BlockEvents, wantEvents)
				}
			}
		}
	}
}
