package oha

// Tightly paired in-process A/B measurement of the compiled engine's
// speculative lowerings (inline caches + superinstruction fusion) on
// the dispatch-heavy workloads. Cross-process benchmark runs on shared
// hardware drift by 2x mid-run, which swamps the effect being measured;
// alternating short same-process segments and taking the median of
// adjacent-pair wall-time ratios cancels the drift (both sides of a
// pair see the same machine state). These tests never fail on
// performance — they print the measured ratios (visible under -v and in
// `go test -json` streams, e.g. scripts/bench_snapshot.sh) so the
// numbers in BENCH_*.json snapshots stay reproducible.

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"oha/internal/core"
	"oha/internal/fasttrack"
	"oha/internal/interp"
	"oha/internal/sched"
	"oha/internal/workloads"
)

func pairedSpeedup(t *testing.T, traced bool) {
	if testing.Short() {
		t.Skip("paired measurement is a timing loop; skipped in -short")
	}
	const segRuns = 30 // executions per timed segment
	const pairs = 100  // A/B segment pairs

	for _, name := range []string{"dispatch-mono", "dispatch-poly"} {
		w := workloads.ByName(name)
		prog := w.Prog()
		inputs := w.GenInput(1000)
		blockMask := make([]bool, len(prog.Blocks))
		m := interp.Masks{Mem: []bool{}, Sync: []bool{}, Block: []bool{}}
		if traced {
			m = interp.Masks{Block: blockMask}
		}
		base := interp.CompileWith(prog, m, interp.CompileOptions{DisableIC: true, DisableFusion: true})
		pr, err := core.Profile(prog, func(run int) core.Execution {
			return core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
		}, 8)
		if err != nil {
			t.Fatal(err)
		}
		seeds := map[int][]int{}
		for site, set := range pr.DB.Callees {
			if set != nil && !set.IsEmpty() {
				seeds[site] = set.Slice()
			}
		}
		ic := interp.CompileWith(prog, m, interp.CompileOptions{Callees: seeds})
		if ic.ICSites() == 0 {
			t.Fatal("no IC sites")
		}

		seg := func(code *interp.Code, runs int) (time.Duration, uint64) {
			var steps uint64
			start := time.Now()
			for r := 0; r < runs; r++ {
				cfg := interp.Config{
					Prog:   prog,
					Inputs: inputs,
					Choose: sched.NewSeeded(2000),
					Engine: interp.EngineCompiled,
					Code:   code,
				}
				if traced {
					cfg.Tracer = fasttrack.New()
					cfg.Masks.Block = blockMask
				}
				res, err := interp.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				steps += res.Stats.Steps
			}
			return time.Since(start), steps
		}

		// Warm up both images.
		seg(base, segRuns)
		seg(ic, segRuns)

		var ratios []float64
		var baseTot, icTot time.Duration
		var baseSteps, icSteps uint64
		for p := 0; p < pairs; p++ {
			// Collect between pairs, then re-warm each image with one
			// unmeasured execution: without this, garbage from one
			// side's segment was collected inside the other side's
			// timed window, skewing adjacent ratios.
			runtime.GC()
			seg(base, 1)
			seg(ic, 1)
			bd, bs := seg(base, segRuns)
			id, is := seg(ic, segRuns)
			baseTot += bd
			icTot += id
			baseSteps += bs
			icSteps += is
			// steps are identical per run; ratio of wall times is the
			// speedup for this adjacent pair.
			ratios = append(ratios, float64(bd)/float64(id))
		}
		sort.Float64s(ratios)
		med := ratios[len(ratios)/2]
		label := "off"
		if traced {
			label = "fasttrack"
		}
		t.Logf("%s[%s]: pairs=%d median speedup=%.3f p25=%.3f p75=%.3f base=%.1fM/s ic=%.1fM/s",
			name, label, pairs, med, ratios[len(ratios)/4], ratios[3*len(ratios)/4],
			float64(baseSteps)/baseTot.Seconds()/1e6,
			float64(icSteps)/icTot.Seconds()/1e6)
	}
}

// TestPairedSpeedup measures inline caches + fusion with tracing off.
func TestPairedSpeedup(t *testing.T) { pairedSpeedup(t, false) }

// TestPairedSpeedupFastTrack measures the same pair with the FastTrack
// race detector attached (full memory/sync instrumentation).
func TestPairedSpeedupFastTrack(t *testing.T) { pairedSpeedup(t, true) }

// TestPairedSpeedupFastPath measures the inline analysis fast paths:
// with the FastTrack detector attached under full instrumentation, a
// fastpath-enabled image against a DisableFastPath image of the same
// configuration, over the Figure 5 race suite plus dispatch-mono. The
// same interleaved-pairs discipline as pairedSpeedup applies; the
// logged median is the traced steps/sec speedup the devirtualized
// epoch fast path buys.
func TestPairedSpeedupFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("paired measurement is a timing loop; skipped in -short")
	}
	const segRuns = 10 // executions per timed segment
	const pairs = 100  // A/B segment pairs

	names := []string{"dispatch-mono"}
	for _, w := range workloads.Races() {
		names = append(names, w.Name)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			w := workloads.ByName(name)
			prog := w.Prog()
			inputs := w.GenInput(1000)
			blockMask := make([]bool, len(prog.Blocks))
			m := interp.Masks{Block: blockMask}
			on := interp.CompileWith(prog, m, interp.CompileOptions{})
			off := interp.CompileWith(prog, m, interp.CompileOptions{DisableFastPath: true})

			seg := func(code *interp.Code, runs int) (time.Duration, uint64) {
				var steps uint64
				start := time.Now()
				for r := 0; r < runs; r++ {
					res, err := interp.Run(interp.Config{
						Prog:   prog,
						Inputs: inputs,
						Choose: sched.NewSeeded(2000),
						Engine: interp.EngineCompiled,
						Code:   code,
						Tracer: fasttrack.New(),
						Masks:  interp.Masks{Block: blockMask},
					})
					if err != nil {
						t.Fatal(err)
					}
					steps += res.Stats.Steps
				}
				return time.Since(start), steps
			}

			// One instrumented run for the hit-rate context line.
			probe, err := interp.Run(interp.Config{
				Prog: prog, Inputs: inputs, Choose: sched.NewSeeded(2000),
				Engine: interp.EngineCompiled, Code: on,
				Tracer: fasttrack.New(), Masks: interp.Masks{Block: blockMask},
			})
			if err != nil {
				t.Fatal(err)
			}
			fp := probe.IC.FastPath

			// Warm up both images.
			seg(on, segRuns)
			seg(off, segRuns)

			var ratios []float64
			var onTot, offTot time.Duration
			var onSteps, offSteps uint64
			for p := 0; p < pairs; p++ {
				runtime.GC()
				seg(off, 1)
				seg(on, 1)
				od, os := seg(off, segRuns)
				nd, ns := seg(on, segRuns)
				offTot += od
				onTot += nd
				offSteps += os
				onSteps += ns
				ratios = append(ratios, float64(od)/float64(nd))
			}
			sort.Float64s(ratios)
			med := ratios[len(ratios)/2]
			t.Logf("%s[fastpath]: pairs=%d median speedup=%.3f p25=%.3f p75=%.3f off=%.1fM/s on=%.1fM/s hits=%d slow=%d",
				name, pairs, med, ratios[len(ratios)/4], ratios[3*len(ratios)/4],
				float64(offSteps)/offTot.Seconds()/1e6,
				float64(onSteps)/onTot.Seconds()/1e6,
				fp.Hits, fp.Slow)
		})
	}
}
