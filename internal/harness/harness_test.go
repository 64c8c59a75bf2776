package harness

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"oha/internal/core"
	"oha/internal/workloads"
)

// tiny returns options that keep the experiments fast in tests.
func tiny() Options {
	return Options{ProfileRuns: 8, TestRuns: 2, Budget: 24, Repeat: 1}
}

// The Figure 5/6 baseline runs a precompiled image; it must execute
// exactly what core.RunPlain executes.
func TestPlainRunnerMatchesRunPlain(t *testing.T) {
	for _, w := range append(workloads.Races(), workloads.Slices()...) {
		prog := w.Prog()
		plain := plainRunner(prog)
		for i := 0; i < 2; i++ {
			e := testExec(w, i)
			got, err := plain(e)
			if err != nil {
				t.Fatalf("%s/%d: %v", w.Name, i, err)
			}
			want, err := core.RunPlain(prog, e, core.RunOptions{})
			if err != nil {
				t.Fatalf("%s/%d: RunPlain: %v", w.Name, i, err)
			}
			if !reflect.DeepEqual(got.Output, want.Output) || got.Stats.Steps != want.Stats.Steps {
				t.Errorf("%s/%d: output %v in %d steps, RunPlain %v in %d", w.Name, i, got.Output, got.Stats.Steps, want.Output, want.Stats.Steps)
			}
		}
	}
}

func TestFig5ShapesAndSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rows, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err) // the soundness gate fires as an error
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RaceFree {
			// Statically race-free: hybrid and optimistic do (almost)
			// no per-access work.
			if r.HybridEvents > 100 || r.OptEvents > 100 {
				t.Errorf("%s: race-free benchmark still instrumented (%d/%d)",
					r.Name, r.HybridEvents, r.OptEvents)
			}
		}
		if r.OptEvents > r.FTEvents {
			t.Errorf("%s: optimistic events exceed FastTrack (%d > %d)",
				r.Name, r.OptEvents, r.FTEvents)
		}
		if r.HybridEvents > r.FTEvents {
			t.Errorf("%s: hybrid events exceed FastTrack", r.Name)
		}
	}
	// The headline benchmarks must show real elision.
	byName := map[string]Fig5Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, name := range []string{"lusearch", "raytracer", "moldyn"} {
		r := byName[name]
		if r.OptEvents*2 > r.HybridEvents {
			t.Errorf("%s: OptFT events %d not well below hybrid %d",
				name, r.OptEvents, r.HybridEvents)
		}
	}
	var sb strings.Builder
	PrintFig5(&sb, rows)
	if !strings.Contains(sb.String(), "lusearch") {
		t.Error("printer dropped rows")
	}
}

func TestFig6ShapesAndSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rows, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err) // slice-equality gate fires as an error
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig6Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.OptNodes > r.HybridNodes {
			t.Errorf("%s: optimistic traced more than hybrid (%d > %d)",
				r.Name, r.OptNodes, r.HybridNodes)
		}
	}
	// zlib is the headline speedup; vim must show the CI→CS unlock.
	z := byName["zlib"]
	if z.OptNodes*5 > z.HybridNodes {
		t.Errorf("zlib: node reduction too small (%d vs %d)", z.OptNodes, z.HybridNodes)
	}
	v := byName["vim"]
	if v.HybridAT != core.CI || v.OptAT != core.CS {
		t.Errorf("vim ATs = %s/%s, want CI/CS", v.HybridAT, v.OptAT)
	}
	var sb strings.Builder
	PrintFig6(&sb, rows)
	if !strings.Contains(sb.String(), "zlib") {
		t.Error("printer dropped rows")
	}
}

func TestFig9OptimisticNeverWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rows, err := Fig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OptRate > r.BaseRate+1e-9 {
			t.Errorf("%s: optimistic alias rate %.4f above base %.4f",
				r.Name, r.OptRate, r.BaseRate)
		}
	}
}

func TestFig11Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rows, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.LUC > r.Base+1e-9 || r.Callees > r.LUC+1e-9 || r.Contexts > r.Callees+1e-9 {
			t.Errorf("%s: ablation not monotone: %.1f %.1f %.1f %.1f",
				r.Name, r.Base, r.LUC, r.Callees, r.Contexts)
		}
	}
}

func TestBreakEvenMath(t *testing.T) {
	// Optimistic cheaper at runtime: break-even at the startup gap.
	be := breakEven(10, 2, 2.0, 1.0)
	if math.Abs(be-8) > 1e-9 {
		t.Errorf("breakEven = %v, want 8", be)
	}
	// Optimistic not cheaper at runtime and dearer to start: never.
	if !math.IsInf(breakEven(10, 2, 1.0, 1.5), 1) {
		t.Error("expected never")
	}
	// Cheaper everywhere: immediate.
	if breakEven(1, 2, 2.0, 1.0) != 0 {
		t.Error("expected immediate break-even")
	}
}

// Tables 1/2 are pure functions of the Figure 5/6 rows: their set-up
// columns and speedups are the rows' own values, and break-even is
// solved from them.
func TestTablesFromFigureRows(t *testing.T) {
	fig5 := []Fig5Row{
		{Name: "free", RaceFree: true, PlainSec: 1, FTSec: 2, HybridSec: 1, OptSec: 1},
		{Name: "racy", PlainSec: 1, FTSec: 3, HybridSec: 2, OptSec: 1,
			ProfileSec: 0.5, ProfileRuns: 7, SoundSec: 0.125, PredSec: 0.25},
	}
	want1 := []Tab1Row{{
		Name: "racy", SoundSec: 0.125, ProfileSec: 0.5, ProfileRuns: 7, PredSec: 0.25,
		// Optimistic start-up 0.75 s against 0.125 s (hybrid) and 0 s
		// (FastTrack), at normalized rates 1 against 2 and 3.
		BreakEvenVsHybrid: 0.625, BreakEvenVsFT: 0.375,
		SpeedupVsHybrid: 2, SpeedupVsFT: 3,
	}}
	if got := Tab1(fig5); !reflect.DeepEqual(got, want1) {
		t.Errorf("Tab1 = %+v\nwant %+v", got, want1)
	}

	fig6 := []Fig6Row{{Name: "s", PlainSec: 2, HybridSec: 6, OptSec: 2,
		HybridAT: core.CI, OptAT: core.CS,
		ProfileSec: 1, ProfileRuns: 9, SoundSec: 0.25, PredSec: 0.5}}
	want2 := []Tab2Row{{
		Name: "s", TradAT: core.CI, TradSec: 0.25, OptAT: core.CS, OptSec: 0.5,
		ProfSec: 1, ProfRuns: 9,
		// Start-up 1.5 s against 0.25 s at normalized rates 1 against 3.
		BreakEvenSec: 0.625, DynamicSpeedup: 3,
	}}
	if got := Tab2(fig6); !reflect.DeepEqual(got, want2) {
		t.Errorf("Tab2 = %+v\nwant %+v", got, want2)
	}
}

// A ratio's sign is resolved only when both quartiles lie on one side
// of 1.
func TestQuartilesResolved(t *testing.T) {
	for _, tc := range []struct {
		xs       []float64
		resolved bool
		mark     string
	}{
		{[]float64{0.7, 0.8, 0.9, 0.95, 0.97}, true, "<1"},
		{[]float64{1.05, 1.1, 1.2, 1.3, 1.4}, true, ">1"},
		{[]float64{0.8, 0.9, 1.0, 1.1, 1.2}, false, "~1"},
		{[]float64{0.5, 0.98, 0.99, 1.01, 1.02, 2}, false, "~1"},
	} {
		q := quartiles(tc.xs)
		if q.Resolved() != tc.resolved || !strings.HasSuffix(q.String(), tc.mark) {
			t.Errorf("%v: quartiles %+v resolved=%v %q, want resolved=%v mark %s",
				tc.xs, q, q.Resolved(), q, tc.resolved, tc.mark)
		}
	}
	if q := quartiles([]float64{4, 1, 3, 2, 5}); q != (Quartiles{P25: 2, Median: 3, P75: 4}) {
		t.Errorf("quartiles of 1..5 = %+v", q)
	}
	if q := quartiles([]float64{1, 2}); q.Median != 1.5 {
		t.Errorf("median of {1,2} = %v, want 1.5", q.Median)
	}
}

func TestFmtBE(t *testing.T) {
	if fmtBE(math.Inf(1)) != "never" || fmtBE(0) != "0s" {
		t.Error("fmtBE sentinels wrong")
	}
	if !strings.Contains(fmtBE(0.005), "ms") || !strings.Contains(fmtBE(3.2), "s") {
		t.Error("fmtBE units wrong")
	}
}

// Printer smoke tests over synthetic rows (the expensive experiment
// paths are covered by the Fig5/Fig6 tests above and cmd/ohabench).
func TestPrinters(t *testing.T) {
	var sb strings.Builder
	PrintTab1(&sb, []Tab1Row{{
		Name: "x", SoundSec: 0.1, ProfileSec: 0.2, ProfileRuns: 3,
		PredSec: 0.05, BreakEvenVsHybrid: 1.5, BreakEvenVsFT: math.Inf(1),
		SpeedupVsHybrid: 2, SpeedupVsFT: 3,
	}})
	PrintTab2(&sb, []Tab2Row{{
		Name: "y", TradAT: core.CI, TradSec: 0.1, OptAT: core.CS,
		OptSec: 0.2, ProfSec: 0.3, ProfRuns: 4, BreakEvenSec: 0, DynamicSpeedup: 5,
	}})
	rows := []SweepRow{{Name: "z", Points: []SweepPoint{
		{ProfileRuns: 1, MisSpecRate: 0.5, SliceSize: 10},
		{ProfileRuns: 2, MisSpecRate: 0, SliceSize: 12},
		{ProfileRuns: 4, MisSpecRate: 0, SliceSize: 12},
		{ProfileRuns: 8, MisSpecRate: 0, SliceSize: 12},
		{ProfileRuns: 16, MisSpecRate: 0, SliceSize: 12},
		{ProfileRuns: 32, MisSpecRate: 0, SliceSize: 12},
		{ProfileRuns: 64, MisSpecRate: 0, SliceSize: 12},
	}}}
	PrintFig7(&sb, rows)
	PrintFig8(&sb, rows)
	PrintFig9(&sb, []Fig9Row{{Name: "w", BaseRate: 0.5, OptRate: 0.25, BaseAT: core.CI, OptAT: core.CS}})
	PrintFig10(&sb, []Fig10Row{{Name: "v", BaseSize: 100, OptSize: 10, Endpoints: 2}})
	PrintFig11(&sb, []Fig11Row{{Name: "u", Base: 9, LUC: 8, Callees: 7, Contexts: 6, BaseAT: core.CI, ContextsAT: core.CS}})
	out := sb.String()
	for _, frag := range []string{"never", "Table 1", "Table 2", "Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11", "50.0%", "10.00x"} {
		if !strings.Contains(out, frag) {
			t.Errorf("printer output missing %q", frag)
		}
	}
}
