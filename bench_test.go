// Benchmarks regenerating the dynamic-analysis measurements behind
// every table and figure of the paper's evaluation (§6). Each
// Benchmark{Fig,Table}N family measures the runtime configurations the
// corresponding artifact compares; deterministic work counts are
// attached as custom metrics (events/op, nodes/op).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The printable tables themselves (paper-style rows, break-even math,
// profiling sweeps) come from `go run ./cmd/ohabench -exp all`.
package oha_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/ctxs"
	"oha/internal/fasttrack"
	"oha/internal/harness"
	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/pointsto"
	"oha/internal/sched"
	"oha/internal/staticslice"
	"oha/internal/workloads"
)

// benchSetup caches the per-workload analysis artifacts across
// benchmark families.
type benchSetup struct {
	once sync.Once
	pr   *core.ProfileResult
	ft   *core.OptFT    // race workloads
	hft  *core.HybridFT // race workloads
	sl   *core.OptSlice // slice workloads
	hy   *core.HybridSlicer
	err  error
}

var setups sync.Map // name -> *benchSetup

const benchProfileRuns = 32
const benchBudget = 24

func setupFor(b *testing.B, w *workloads.Workload) *benchSetup {
	b.Helper()
	v, _ := setups.LoadOrStore(w.Name, &benchSetup{})
	s := v.(*benchSetup)
	s.once.Do(func() {
		s.pr, s.err = core.Profile(w.Prog(), func(run int) core.Execution {
			return core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
		}, benchProfileRuns)
		if s.err != nil {
			return
		}
		switch w.Kind {
		case workloads.Race:
			s.ft, s.err = core.NewOptFT(w.Prog(), s.pr.DB)
			if s.err != nil {
				return
			}
			s.hft, s.err = core.NewHybridFT(w.Prog(), core.StaticConfig{Workers: 1})
		case workloads.Slice:
			criterion := lastPrintOf(w)
			s.sl, s.err = core.NewOptSlice(w.Prog(), s.pr.DB, criterion, benchBudget)
			if s.err != nil {
				return
			}
			s.hy, s.err = core.NewHybridSlicer(w.Prog(), criterion, benchBudget, core.StaticConfig{Workers: 1})
		}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s
}

func lastPrintOf(w *workloads.Workload) *ir.Instr {
	prog := w.Prog()
	var out *ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpPrint {
			out = in
		}
	}
	return out
}

func testExecOf(w *workloads.Workload, i int) core.Execution {
	return core.Execution{Inputs: w.GenInput(1000 + i), Seed: uint64(2000 + i)}
}

// ---------------------------------------------------------------- Fig 5

// BenchmarkFig5Baseline measures uninstrumented execution (the
// framework bar of Figure 5).
func BenchmarkFig5Baseline(b *testing.B) {
	for _, w := range workloads.Races() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			e := testExecOf(w, 0)
			var steps uint64
			for i := 0; i < b.N; i++ {
				res, err := core.RunPlain(w.Prog(), e, core.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Stats.Steps
			}
			b.ReportMetric(float64(steps), "steps/op")
		})
	}
}

// BenchmarkFig5FastTrack measures the unoptimized FastTrack bar.
func BenchmarkFig5FastTrack(b *testing.B) {
	for _, w := range workloads.Races() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			e := testExecOf(w, 0)
			var events uint64
			for i := 0; i < b.N; i++ {
				rep, err := core.RunFastTrack(w.Prog(), e, core.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				events = rep.Stats.InstrumentedOps()
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// BenchmarkFig5OptVsHybrid compares the OptFT bar with the
// traditional hybrid FastTrack bar on one execution. Each iteration
// runs both configurations, in an order that alternates between
// iterations, so that neither always runs first; it reports each one's
// time per run and their ratio.
func BenchmarkFig5OptVsHybrid(b *testing.B) {
	for _, w := range workloads.Races() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			s := setupFor(b, w)
			e := testExecOf(w, 0)
			configs := [2]func(core.Execution, core.RunOptions) (*core.RaceReport, error){s.hft.Run, s.ft.Run}
			var elapsed [2]time.Duration
			var reps [2]*core.RaceReport
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range configs {
					c := (i + k) % len(configs)
					start := time.Now()
					rep, err := configs[c](e, core.RunOptions{})
					elapsed[c] += time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					reps[c] = rep
				}
			}
			hybrid, opt := float64(elapsed[0])/float64(b.N), float64(elapsed[1])/float64(b.N)
			b.ReportMetric(hybrid, "hybrid-ns/op")
			b.ReportMetric(opt, "opt-ns/op")
			b.ReportMetric(opt/hybrid, "opt/hybrid")
			b.ReportMetric(float64(reps[0].Stats.InstrumentedOps()), "hybrid-events/op")
			b.ReportMetric(float64(reps[1].Stats.InstrumentedOps()), "opt-events/op")
		})
	}
}

// ---------------------------------------------------------------- Tab 1

// BenchmarkTable1Profiling measures the profiling phase (the startup
// cost amortized in Table 1's break-even columns).
func BenchmarkTable1Profiling(b *testing.B) {
	for _, w := range workloads.Races() {
		if w.RaceFree {
			continue
		}
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.ProfileN(w.Prog(), []core.Execution{
					{Inputs: w.GenInput(i % 8), Seed: uint64(i%8 + 1)},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Static measures the static-analysis phases (sound and
// predicated) of Table 1.
func BenchmarkTable1Static(b *testing.B) {
	for _, w := range workloads.Races() {
		if w.RaceFree {
			continue
		}
		w := w
		b.Run(w.Name+"/sound", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewHybridFT(w.Prog(), core.StaticConfig{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.Name+"/predicated", func(b *testing.B) {
			s := setupFor(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewOptFT(w.Prog(), s.pr.DB); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdSetup measures the cold set-up of OptFT as a library
// user pays it on the eight programs where predicated elision leaves
// almost no FastTrack event (bench's race-elided workload): profiling,
// which ends with the predicated race analysis proposing the elidable
// locks, then the detector, over a fresh artifact cache per
// iteration. The sound rollback target is not part of it: a detector
// builds it the first time a run falls through to it.
func BenchmarkColdSetup(b *testing.B) {
	for _, name := range []string{"lusearch", "raytracer", "moldyn", "sor", "sparse", "series", "crypt", "lufact"} {
		w := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			gen := func(run int) core.Execution { return core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)} }
			for i := 0; i < b.N; i++ {
				cache := artifacts.New("")
				pr, err := core.ProfileWith(w.Prog(), gen, core.ProfileOptions{MaxRuns: benchProfileRuns, Workers: 1, Cache: cache})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.NewOptFTCached(w.Prog(), pr.DB, cache); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- Fig 6

// BenchmarkFig6Hybrid measures the traditional hybrid slicer bar.
func BenchmarkFig6Hybrid(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			s := setupFor(b, w)
			e := testExecOf(w, 0)
			var nodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := s.hy.Run(e, core.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				nodes = rep.TraceNodes
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// BenchmarkFig6OptSlice measures the OptSlice bar.
func BenchmarkFig6OptSlice(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			s := setupFor(b, w)
			e := testExecOf(w, 0)
			var nodes int
			var checks uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := s.sl.Run(e, core.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				nodes = rep.TraceNodes
				checks = rep.CheckEvents
			}
			b.ReportMetric(float64(nodes), "nodes/op")
			b.ReportMetric(float64(checks), "checks/op")
		})
	}
}

// BenchmarkFig6FullGiri measures the trace-everything baseline the
// paper could not even run at scale (bounded here by a node cap).
func BenchmarkFig6FullGiri(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			criterion := lastPrintOf(w)
			e := testExecOf(w, 0)
			var nodes int
			for i := 0; i < b.N; i++ {
				rep, err := core.RunFullGiri(w.Prog(), criterion, e, core.RunOptions{}, 0)
				if err != nil {
					b.Fatal(err)
				}
				nodes = rep.TraceNodes
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// ---------------------------------------------------------------- Tab 2

// BenchmarkTable2Static measures the slicing static-analysis phases.
func BenchmarkTable2Static(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		criterion := lastPrintOf(w)
		b.Run(w.Name+"/sound", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewHybridSlicer(w.Prog(), criterion, benchBudget, core.StaticConfig{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.Name+"/predicated", func(b *testing.B) {
			s := setupFor(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewOptSlice(w.Prog(), s.pr.DB, criterion, benchBudget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------ Fig 7 / 8

// BenchmarkFig7Profiling measures one profiling execution per slicing
// benchmark — the unit of Figure 7/8's x axis.
func BenchmarkFig7Profiling(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.ProfileN(w.Prog(), []core.Execution{
					{Inputs: w.GenInput(i % 16), Seed: uint64(i%16 + 1)},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8StaticSlice measures predicated static slicing (the
// quantity swept in Figure 8) on the converged invariant database.
func BenchmarkFig8StaticSlice(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			s := setupFor(b, w)
			b.ReportMetric(float64(s.sl.Static.Size()), "slice-instrs")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewOptSlice(w.Prog(), s.pr.DB, lastPrintOf(w), benchBudget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ----------------------------------------------------------- Fig 9-11

// BenchmarkFig9PointsTo measures the base and optimistic points-to
// analyses whose alias rates Figure 9 compares.
func BenchmarkFig9PointsTo(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		b.Run(w.Name+"/base", func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				pt, err := pointsto.Analyze(w.Prog(), ctxs.NewCI(w.Prog()), nil)
				if err != nil {
					b.Fatal(err)
				}
				rate = pt.AliasRate()
			}
			b.ReportMetric(rate, "alias-rate")
		})
		b.Run(w.Name+"/optimistic", func(b *testing.B) {
			s := setupFor(b, w)
			var rate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt, err := pointsto.Analyze(w.Prog(), ctxs.NewCS(w.Prog(), benchBudget, s.pr.DB.Contexts), s.pr.DB)
				if err != nil {
					b.Fatal(err)
				}
				rate = pt.AliasRate()
			}
			b.ReportMetric(rate, "alias-rate")
		})
	}
}

// BenchmarkFig10Slices measures sound vs predicated static slicing
// (Figure 10's slice-size comparison).
func BenchmarkFig10Slices(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		criterion := lastPrintOf(w)
		b.Run(w.Name+"/sound", func(b *testing.B) {
			pt, err := pointsto.Analyze(w.Prog(), ctxs.NewCI(w.Prog()), nil)
			if err != nil {
				b.Fatal(err)
			}
			sl := staticslice.New(pt)
			var size int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				size = sl.BackwardSlice(criterion).Size()
			}
			b.ReportMetric(float64(size), "slice-instrs")
		})
		b.Run(w.Name+"/predicated", func(b *testing.B) {
			s := setupFor(b, w)
			b.ResetTimer()
			var size int
			for i := 0; i < b.N; i++ {
				size = s.sl.Static.Size()
				_ = size
			}
			b.ReportMetric(float64(s.sl.Static.Size()), "slice-instrs")
		})
	}
}

// BenchmarkFig11Ablation measures the predicated analysis with each
// invariant level of Figure 11 (base / +LUC / full).
func BenchmarkFig11Ablation(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		criterion := lastPrintOf(w)
		run := func(b *testing.B, mk func() error) {
			for i := 0; i < b.N; i++ {
				if err := mk(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(w.Name+"/base", func(b *testing.B) {
			run(b, func() error {
				_, err := core.NewHybridSlicer(w.Prog(), criterion, benchBudget, core.StaticConfig{Workers: 1})
				return err
			})
		})
		b.Run(w.Name+"/all-invariants", func(b *testing.B) {
			s := setupFor(b, w)
			b.ResetTimer()
			run(b, func() error {
				_, err := core.NewOptSlice(w.Prog(), s.pr.DB, criterion, benchBudget)
				return err
			})
		})
	}
}

// ------------------------------------------- Parallel pipeline / cache

// BenchmarkProfileParallel measures the profiling convergence loop at
// worker-pool sizes 1 and GOMAXPROCS. The merged database is
// bit-identical at every size (TestProfileParallelDeterminism); only
// wall-clock changes.
func BenchmarkProfileParallel(b *testing.B) {
	for _, name := range []string{"go", "lusearch"} {
		w := workloads.ByName(name)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pr, err := core.ProfileWith(w.Prog(), func(run int) core.Execution {
						return core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
					}, core.ProfileOptions{MaxRuns: benchProfileRuns, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(pr.Runs), "profile-runs")
				}
			})
		}
	}
}

// BenchmarkHarnessParallel measures a full Figure 10 regeneration,
// which fans its workloads out, at experiment-pool sizes 1 and
// GOMAXPROCS.
func BenchmarkHarnessParallel(b *testing.B) {
	for _, parallel := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := harness.Options{
					ProfileRuns: 8, TestRuns: 2, Budget: benchBudget, Repeat: 1,
					Parallel: parallel,
				}
				if _, err := harness.Fig10(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCachedStaticSolves is the AllocsPerRun-style counter for
// the artifact cache: it reports the number of static solves (cache
// misses) per predicated-constructor call. Cold is > 0; warm must be
// exactly 0 — the cache eliminates every repeated solve.
func BenchmarkCachedStaticSolves(b *testing.B) {
	w := workloads.ByName("zlib")
	s := setupFor(b, w)
	criterion := lastPrintOf(w)
	cache := artifacts.New("")
	// Warm the cache with one cold build.
	if _, err := core.NewOptSliceCached(w.Prog(), s.pr.DB, criterion, benchBudget, cache); err != nil {
		b.Fatal(err)
	}
	start := cache.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewOptSliceCached(w.Prog(), s.pr.DB, criterion, benchBudget, cache); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	end := cache.Stats()
	b.ReportMetric(float64(end.Misses-start.Misses)/float64(b.N), "solves/op")
	b.ReportMetric(float64(start.Misses), "cold-solves")
}

// ------------------------------------------------------- Ablations

// BenchmarkAblationEpochVsVC compares FastTrack's adaptive-epoch
// representation against the DJIT+-style full-vector-clock baseline —
// the optimization FastTrack's own evaluation isolates.
func BenchmarkAblationEpochVsVC(b *testing.B) {
	for _, name := range []string{"moldyn", "lusearch"} {
		w := workloads.ByName(name)
		e := testExecOf(w, 0)
		b.Run(name+"/fasttrack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunFastTrack(w.Prog(), e, core.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/djit", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunDJIT(w.Prog(), e, core.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAggressiveLUC measures the §2.1 stability/strength
// trade-off: OptFT with the standard invariant set vs the aggressive
// one (blocks must appear in 60% of profiled runs to stay "reachable").
func BenchmarkAblationAggressiveLUC(b *testing.B) {
	w := workloads.ByName("lusearch")
	e := testExecOf(w, 0)
	s := setupFor(b, w)
	b.Run("standard", func(b *testing.B) {
		var events uint64
		for i := 0; i < b.N; i++ {
			rep, err := s.ft.Run(e, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			events = rep.Stats.InstrumentedOps()
		}
		b.ReportMetric(float64(events), "events/op")
	})
	b.Run("aggressive", func(b *testing.B) {
		agg, err := core.NewOptFT(w.Prog(), s.pr.AggressiveDB(0.6))
		if err != nil {
			b.Fatal(err)
		}
		var events uint64
		rollbacks := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := agg.Run(e, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			events = rep.Stats.InstrumentedOps()
			if rep.RolledBack {
				rollbacks++
			}
		}
		b.ReportMetric(float64(events), "events/op")
		b.ReportMetric(float64(rollbacks)/float64(b.N), "rollback-rate")
	})
}

// ----------------------------------------------------- Execution engine

// benchEngine measures one interpreter engine end-to-end on the slice
// workloads (the largest single executions in the suite). traced
// attaches a full FastTrack detector, the heaviest production tracer;
// untraced runs measure raw dispatch. steps/sec is the comparable
// throughput metric across engines.
func benchEngine(b *testing.B, engine interp.EngineKind, traced bool) {
	for _, w := range workloads.Slices() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			prog := w.Prog()
			e := testExecOf(w, 0)
			blockMask := make([]bool, len(prog.Blocks))
			var code *interp.Code
			if engine == interp.EngineCompiled {
				// Precompile once, as every production caller does. The
				// untraced image flags no site, like core.PlainImage: nil
				// masks would mean every site.
				m := interp.Masks{Mem: []bool{}, Sync: []bool{}, Block: []bool{}}
				if traced {
					m = interp.Masks{Block: blockMask}
				}
				code = interp.Compile(prog, m)
			}
			var steps uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := interp.Config{
					Prog:   prog,
					Inputs: e.Inputs,
					Choose: sched.NewSeeded(e.Seed),
					Engine: engine,
					Code:   code,
				}
				if traced {
					cfg.Tracer = fasttrack.New()
					cfg.Masks.Block = blockMask
				}
				res, err := interp.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Stats.Steps
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(steps)/secs, "steps/sec")
			}
		})
	}
}

// BenchmarkInterpTree is the tree-walking interpreter with tracing off.
func BenchmarkInterpTree(b *testing.B) { benchEngine(b, interp.EngineTree, false) }

// BenchmarkInterpCompiled is the compiled bytecode engine with tracing
// off on the uninstrumented image — the headline engine speedup.
func BenchmarkInterpCompiled(b *testing.B) { benchEngine(b, interp.EngineCompiled, false) }

// BenchmarkInterpTreeFastTrack is the tree-walker driving a full
// FastTrack detector.
func BenchmarkInterpTreeFastTrack(b *testing.B) { benchEngine(b, interp.EngineTree, true) }

// BenchmarkInterpCompiledFastTrack is the compiled engine driving a
// full FastTrack detector.
func BenchmarkInterpCompiledFastTrack(b *testing.B) { benchEngine(b, interp.EngineCompiled, true) }

// benchCalleeSeeds extracts inline-cache seeds from a profiled
// invariant database (the same mapping the production pipeline bakes
// into speculative images).
func benchCalleeSeeds(b *testing.B, w *workloads.Workload) map[int][]int {
	b.Helper()
	pr, err := core.Profile(w.Prog(), func(run int) core.Execution {
		return core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
	}, benchProfileRuns)
	if err != nil {
		b.Fatal(err)
	}
	seeds := map[int][]int{}
	for site, set := range pr.DB.Callees {
		if set != nil && !set.IsEmpty() {
			seeds[site] = set.Slice()
		}
	}
	if len(seeds) == 0 {
		b.Fatal("profile learned no callee sets")
	}
	return seeds
}

// benchIndirect measures engine throughput on the dispatch-heavy
// workloads, whose hot loops are dominated by indirect calls through a
// function table. speculative=false compiles the pre-optimization
// compiled engine (no inline caches, no fusion); speculative=true
// seeds inline caches from a profiled database and fuses — the image
// the production speculative pipeline runs.
func benchIndirect(b *testing.B, engine interp.EngineKind, speculative, traced bool) {
	for _, name := range []string{"dispatch-mono", "dispatch-poly"} {
		w := workloads.ByName(name)
		b.Run(w.Name, func(b *testing.B) {
			prog := w.Prog()
			e := testExecOf(w, 0)
			blockMask := make([]bool, len(prog.Blocks))
			var code *interp.Code
			if engine == interp.EngineCompiled {
				// Tracing off means no instrumentation at all: compile
				// with empty (all-elided) masks, so event flags never
				// block fusion. Traced images keep full Mem/Sync
				// instrumentation (nil = every site) as FastTrack needs.
				m := interp.Masks{Mem: []bool{}, Sync: []bool{}, Block: []bool{}}
				if traced {
					m = interp.Masks{Block: blockMask}
				}
				opts := interp.CompileOptions{DisableIC: true, DisableFusion: true}
				if speculative {
					opts = interp.CompileOptions{Callees: benchCalleeSeeds(b, w)}
				}
				code = interp.CompileWith(prog, m, opts)
				if speculative && code.ICSites() == 0 {
					b.Fatal("speculative image has no inline caches")
				}
			}
			var steps, hits uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := interp.Config{
					Prog:   prog,
					Inputs: e.Inputs,
					Choose: sched.NewSeeded(e.Seed),
					Engine: engine,
					Code:   code,
				}
				if traced {
					cfg.Tracer = fasttrack.New()
					cfg.Masks.Block = blockMask
				}
				res, err := interp.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Stats.Steps
				hits += res.IC.Hits
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(steps)/secs, "steps/sec")
			}
			if b.N > 0 {
				b.ReportMetric(float64(hits)/float64(b.N), "ic-hits/op")
			}
		})
	}
}

// BenchmarkInterpIndirectTree: tree-walker on indirect-call-heavy
// workloads — the dispatch-cost ceiling.
func BenchmarkInterpIndirectTree(b *testing.B) { benchIndirect(b, interp.EngineTree, false, false) }

// BenchmarkInterpIndirectCompiled: the compiled engine with both
// speculative lowerings off — the pre-optimization baseline the
// inline-cache speedup is measured against.
func BenchmarkInterpIndirectCompiled(b *testing.B) {
	benchIndirect(b, interp.EngineCompiled, false, false)
}

// BenchmarkInterpIndirectCompiledIC: the compiled engine with inline
// caches seeded from a profiled database plus superinstruction fusion
// — the image the speculative pipeline deploys.
func BenchmarkInterpIndirectCompiledIC(b *testing.B) {
	benchIndirect(b, interp.EngineCompiled, true, false)
}

// BenchmarkInterpIndirectCompiledFastTrack / ...ICFastTrack repeat the
// comparison with a full FastTrack detector attached (the paper's
// heaviest client), where event delivery dilutes the dispatch win.
func BenchmarkInterpIndirectCompiledFastTrack(b *testing.B) {
	benchIndirect(b, interp.EngineCompiled, false, true)
}

func BenchmarkInterpIndirectCompiledICFastTrack(b *testing.B) {
	benchIndirect(b, interp.EngineCompiled, true, true)
}

// BenchmarkInterpCompile measures the compile step itself (it must be
// cheap enough to amortize within one run; the artifact cache makes it
// once-per-configuration in practice).
func BenchmarkInterpCompile(b *testing.B) {
	for _, w := range workloads.Slices() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			prog := w.Prog()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if interp.Compile(prog, interp.Masks{}) == nil {
					b.Fatal("nil code")
				}
			}
		})
	}
}
