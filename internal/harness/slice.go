package harness

import (
	"fmt"
	"io"

	"oha/internal/core"
	"oha/internal/workloads"
)

// Fig6Row is one benchmark's Figure 6 measurement: normalized runtimes
// of the traditional hybrid slicer and OptSlice, with the cold set-up
// Table 2 weighs against them.
type Fig6Row struct {
	Name string

	// Each configuration's median over the timing rounds, summed over
	// the testing set.
	PlainSec  float64
	HybridSec float64
	OptSec    float64
	// OptVsHybrid is the OptSlice/hybrid time ratio of every (testing
	// execution, round) pair.
	OptVsHybrid Quartiles

	HybridNodes uint64 // dynamic trace nodes recorded (work metric)
	OptNodes    uint64
	CheckEvents uint64
	Rollbacks   int

	HybridStatic int // static slice sizes feeding the tracers
	OptStatic    int
	HybridAT     core.SliceAnalysisType
	OptAT        core.SliceAnalysisType

	// Cold set-up, timed without an artifact cache.
	ProfileSec  float64
	ProfileRuns int
	SoundSec    float64 // traditional points-to + static slice
	// PredSec builds OptSlice: the predicated analysis. Its sound
	// rollback target is built only when a run falls through to it.
	PredSec float64
}

// Norm returns runtime normalized to the uninstrumented baseline.
func (r Fig6Row) Norm(sec float64) float64 {
	if r.PlainSec <= 0 {
		return 0
	}
	return sec / r.PlainSec
}

// Fig6 measures the slicing suite, one workload at a time so that no
// timing shares the machine with another workload. Profiling fans out
// over Options.Parallel; every deterministic column is independent of
// it.
func Fig6(opts Options) ([]Fig6Row, error) {
	opts = opts.Defaults()
	return mapOrdered(1, workloads.Slices(), func(_ int, w *workloads.Workload) (Fig6Row, error) {
		return fig6Row(opts, w)
	})
}

// setupSlice times the cold set-up of one benchmark into row and
// returns the hybrid and optimistic slicers.
func setupSlice(opts Options, w *workloads.Workload, row *Fig6Row) (*core.HybridSlicer, *core.OptSlice, error) {
	prog := w.Prog()
	criterion := lastPrint(prog)
	var pr *core.ProfileResult
	var err error
	row.ProfileSec, err = timed(func() error {
		pr, err = profiled(w, opts, nil)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	row.ProfileRuns = pr.Runs
	var hybrid *core.HybridSlicer
	row.SoundSec, err = timed(func() (err error) {
		hybrid, err = core.NewHybridSlicer(prog, criterion, opts.Budget, core.StaticConfig{Workers: 1})
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: sound static slice: %w", w.Name, err)
	}
	var opt *core.OptSlice
	row.PredSec, err = timed(func() error {
		opt, err = core.NewOptSliceCached(prog, pr.DB, criterion, opts.Budget, nil)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: predicated static slice: %w", w.Name, err)
	}
	return hybrid, opt, nil
}

// fig6Row measures one benchmark for Figure 6.
func fig6Row(opts Options, w *workloads.Workload) (Fig6Row, error) {
	row := Fig6Row{Name: w.Name}
	hybrid, opt, err := setupSlice(opts, w, &row)
	if err != nil {
		return Fig6Row{}, err
	}
	row.HybridStatic = hybrid.Static.Size()
	row.OptStatic = opt.Static.Size()
	row.HybridAT = hybrid.AT
	row.OptAT = opt.AT

	prog := w.Prog()
	plain := plainRunner(prog)
	var ratios []float64
	for i := 0; i < opts.TestRuns; i++ {
		e := testExec(w, i)
		// Counts and the soundness gate read the last round's reports;
		// every round does the same deterministic work.
		var hrep, orep *core.SliceReport
		sec, err := rounds(opts.Repeat, []func() error{
			func() error {
				_, err := plain(e)
				return err
			},
			func() (err error) {
				hrep, err = hybrid.Run(e, core.RunOptions{})
				return err
			},
			func() (err error) {
				orep, err = opt.Run(e, core.RunOptions{})
				return err
			},
		})
		if err != nil {
			return Fig6Row{}, fmt.Errorf("%s: test %d: %w", w.Name, i, err)
		}
		row.PlainSec += quartiles(sec[0]).Median
		row.HybridSec += quartiles(sec[1]).Median
		row.OptSec += quartiles(sec[2]).Median
		for r := range sec[2] {
			ratios = append(ratios, ratio(sec[2][r], sec[1][r]))
		}

		row.HybridNodes += uint64(hrep.TraceNodes)
		row.OptNodes += uint64(orep.TraceNodes)
		row.CheckEvents += orep.CheckEvents
		if orep.RolledBack {
			row.Rollbacks++
		}

		// Soundness gate: identical dynamic slices.
		if (hrep.Slice == nil) != (orep.Slice == nil) ||
			(hrep.Slice != nil && !hrep.Slice.Equal(orep.Slice)) {
			return Fig6Row{}, fmt.Errorf("%s: dynamic slices diverged on test %d", w.Name, i)
		}
	}
	row.OptVsHybrid = quartiles(ratios)
	return row, nil
}

// PrintFig6 renders the Figure 6 table.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintf(w, "Figure 6: normalized dynamic-slicing runtimes (x = runtime / uninstrumented)\n")
	fmt.Fprintf(w, "%-8s %12s %9s %8s %20s | %12s %12s %8s %9s | %9s %9s\n",
		"bench", "Trad.Hybrid", "OptSlice", "speedup", "opt/hyb [p25,p75]", "hyb nodes", "opt nodes", "checks", "rollbacks", "hyb stat", "opt stat")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %11.2fx %8.2fx %7.2fx %20s | %12d %12d %8d %9d | %6d/%s %6d/%s\n",
			r.Name, r.Norm(r.HybridSec), r.Norm(r.OptSec), ratio(r.HybridSec, r.OptSec), r.OptVsHybrid,
			r.HybridNodes, r.OptNodes, r.CheckEvents, r.Rollbacks,
			r.HybridStatic, r.HybridAT, r.OptStatic, r.OptAT)
	}
}

// Tab2Row is one benchmark's Table 2 measurement.
type Tab2Row struct {
	Name string

	TradAT   core.SliceAnalysisType
	TradSec  float64 // traditional static analysis (points-to + slice)
	OptAT    core.SliceAnalysisType
	OptSec   float64 // optimistic static set-up (see Fig6Row.PredSec)
	ProfSec  float64
	ProfRuns int

	BreakEvenSec   float64 // vs the traditional hybrid slicer
	DynamicSpeedup float64
}

// Tab2 derives the end-to-end slicing economics from Figure 6's rows.
// The optimistic start-up is profiling plus PredSec, which already
// includes the sound slicer OptSlice keeps for rollback.
func Tab2(rows []Fig6Row) []Tab2Row {
	out := make([]Tab2Row, len(rows))
	for i, r := range rows {
		out[i] = Tab2Row{
			Name:           r.Name,
			TradAT:         r.HybridAT,
			TradSec:        r.SoundSec,
			OptAT:          r.OptAT,
			OptSec:         r.PredSec,
			ProfSec:        r.ProfileSec,
			ProfRuns:       r.ProfileRuns,
			BreakEvenSec:   breakEven(r.ProfileSec+r.PredSec, r.SoundSec, r.Norm(r.HybridSec), r.Norm(r.OptSec)),
			DynamicSpeedup: ratio(r.HybridSec, r.OptSec),
		}
	}
	return out
}

// PrintTab2 renders the Table 2 table.
func PrintTab2(w io.Writer, rows []Tab2Row) {
	fmt.Fprintf(w, "Table 2: OptSlice end-to-end analysis economics\n")
	fmt.Fprintf(w, "%-8s | %4s %10s | %4s %10s %16s | %10s %9s\n",
		"bench", "tAT", "trad(ms)", "oAT", "opt(ms)", "profile(ms)/runs", "breakeven", "dyn-spd")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s | %4s %10.2f | %4s %10.2f %11.2f/%4d | %10s %8.2fx\n",
			r.Name, r.TradAT, r.TradSec*1000, r.OptAT, r.OptSec*1000, r.ProfSec*1000, r.ProfRuns,
			fmtBE(r.BreakEvenSec), r.DynamicSpeedup)
	}
}
