package harness

import (
	"fmt"
	"io"
	"math"

	"oha/internal/core"
	"oha/internal/workloads"
)

// Fig5Row is one benchmark's Figure 5 measurement: normalized runtimes
// of FastTrack, hybrid FastTrack, and OptFT, with the work breakdown
// and the cold set-up Table 1 weighs against it.
type Fig5Row struct {
	Name     string
	RaceFree bool // right of the red line: statically proven race-free

	// Each configuration's median over the timing rounds, summed over
	// the testing set.
	PlainSec  float64 // framework (uninstrumented) baseline
	FTSec     float64
	HybridSec float64
	OptSec    float64
	// OptVsHybrid is the OptFT/HybridFT time ratio of every (testing
	// execution, round) pair.
	OptVsHybrid Quartiles

	// Deterministic work counters, summed over the testing set.
	FTEvents     uint64 // instrumented ops under full FastTrack
	HybridEvents uint64
	OptEvents    uint64 // includes invariant-check events
	CheckEvents  uint64 // invariant-check share of OptEvents
	Rollbacks    int    // mis-speculated testing runs

	// Static results.
	SoundPairs int // racy pairs the sound analysis reports
	PredPairs  int

	// Cold set-up, timed without an artifact cache. ProfileSec
	// includes profiling's proposal of the elidable lock sites.
	ProfileSec  float64
	ProfileRuns int
	SoundSec    float64 // traditional hybrid static analysis
	// PredSec builds OptFT: the predicated analysis. Its sound
	// rollback target is built only when a run falls through to it.
	PredSec float64
}

// Norm returns runtime normalized to the uninstrumented baseline.
func (r Fig5Row) Norm(sec float64) float64 {
	if r.PlainSec <= 0 {
		return 0
	}
	return sec / r.PlainSec
}

// Fig5 measures the race-detection suite, one workload at a time so
// that no timing shares the machine with another workload. Profiling
// fans out over Options.Parallel; every deterministic column is
// independent of it.
func Fig5(opts Options) ([]Fig5Row, error) {
	opts = opts.Defaults()
	return mapOrdered(1, workloads.Races(), func(_ int, w *workloads.Workload) (Fig5Row, error) {
		return fig5Row(opts, w)
	})
}

// setupRace times the cold set-up of one benchmark into row and
// returns the hybrid and optimistic detectors.
func setupRace(opts Options, w *workloads.Workload, row *Fig5Row) (*core.HybridFT, *core.OptFT, error) {
	prog := w.Prog()
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
	var hybrid *core.HybridFT
	row.SoundSec, err = timed(func() (err error) {
		hybrid, err = core.NewHybridFT(prog, core.StaticConfig{Workers: 1})
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: sound static: %w", w.Name, err)
	}
	var opt *core.OptFT
	row.PredSec, err = timed(func() (err error) {
		opt, err = core.NewOptFTCached(prog, pr.DB, nil)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: predicated static: %w", w.Name, err)
	}
	return hybrid, opt, nil
}

// fig5Row measures one benchmark for Figure 5.
func fig5Row(opts Options, w *workloads.Workload) (Fig5Row, error) {
	row := Fig5Row{Name: w.Name, RaceFree: w.RaceFree}
	hybrid, opt, err := setupRace(opts, w, &row)
	if err != nil {
		return Fig5Row{}, err
	}
	row.SoundPairs = len(hybrid.Static.Pairs)
	row.PredPairs = len(opt.Pred.Pairs)

	prog := w.Prog()
	plain := plainRunner(prog)
	var ratios []float64
	for i := 0; i < opts.TestRuns; i++ {
		e := testExec(w, i)
		// Counts and the soundness gate read the last round's reports;
		// every round does the same deterministic work.
		var ft, hy, op *core.RaceReport
		sec, err := rounds(opts.Repeat, []func() error{
			func() error {
				_, err := plain(e)
				return err
			},
			func() (err error) {
				ft, err = core.RunFastTrack(prog, e, core.RunOptions{})
				return err
			},
			func() (err error) {
				hy, err = hybrid.Run(e, core.RunOptions{})
				return err
			},
			func() (err error) {
				op, err = opt.Run(e, core.RunOptions{})
				return err
			},
		})
		if err != nil {
			return Fig5Row{}, fmt.Errorf("%s: test %d: %w", w.Name, i, err)
		}
		row.PlainSec += quartiles(sec[0]).Median
		row.FTSec += quartiles(sec[1]).Median
		row.HybridSec += quartiles(sec[2]).Median
		row.OptSec += quartiles(sec[3]).Median
		for r := range sec[3] {
			ratios = append(ratios, ratio(sec[3][r], sec[2][r]))
		}

		row.FTEvents += ft.Stats.InstrumentedOps()
		row.HybridEvents += hy.Stats.InstrumentedOps()
		row.OptEvents += op.Stats.InstrumentedOps()
		row.CheckEvents += op.CheckEvents
		if op.RolledBack {
			row.Rollbacks++
		}

		// Soundness gate: the three detectors must flag the same
		// racy variables (FastTrack's cross-configuration guarantee).
		if !core.SameRaces(ft, hy) || !core.SameRaces(ft, op) {
			return Fig5Row{}, fmt.Errorf("%s: race reports diverged (ft=%v hybrid=%v opt=%v)",
				w.Name, ft.Races, hy.Races, op.Races)
		}
	}
	row.OptVsHybrid = quartiles(ratios)
	return row, nil
}

// PrintFig5 renders the Figure 5 table.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "Figure 5: normalized race-detection runtimes (x = runtime / uninstrumented)\n")
	fmt.Fprintf(w, "%-11s %9s %9s %9s %20s | %12s %12s %12s %7s %9s\n",
		"benchmark", "FastTrack", "HybridFT", "OptFT", "opt/hyb [p25,p75]", "FT events", "Hyb events", "Opt events", "checks%", "rollbacks")
	for _, r := range rows {
		marker := ""
		if r.RaceFree {
			marker = " *" // right of the paper's red line
		}
		checkPct := 0.0
		if r.OptEvents > 0 {
			checkPct = 100 * float64(r.CheckEvents) / float64(r.OptEvents)
		}
		fmt.Fprintf(w, "%-11s %8.2fx %8.2fx %8.2fx %20s | %12d %12d %12d %6.1f%% %9d%s\n",
			r.Name, r.Norm(r.FTSec), r.Norm(r.HybridSec), r.Norm(r.OptSec), r.OptVsHybrid,
			r.FTEvents, r.HybridEvents, r.OptEvents, checkPct, r.Rollbacks, marker)
	}
	fmt.Fprintf(w, "(* = statically proven race-free by the sound analysis; opt/hyb = median OptFT/HybridFT time\n")
	fmt.Fprintf(w, " ratio over (test run, round) pairs; <1 or >1 = both quartiles on that side, ~1 = unresolved)\n")
}

// Tab1Row is one benchmark's Table 1 measurement.
type Tab1Row struct {
	Name        string
	SoundSec    float64 // traditional hybrid static analysis time
	ProfileSec  float64
	ProfileRuns int
	PredSec     float64 // optimistic static set-up (see Fig5Row.PredSec)

	// Break-even baseline-execution seconds (math.Inf(1) = never).
	BreakEvenVsHybrid float64
	BreakEvenVsFT     float64
	// Dynamic speedups.
	SpeedupVsHybrid float64
	SpeedupVsFT     float64
}

// Tab1 derives the end-to-end analysis economics from Figure 5's rows
// for the benchmarks not statically proven race-free (Table 1 lists
// exactly those). The optimistic start-up is profiling plus PredSec,
// which already includes the sound analysis OptFT keeps for rollback;
// hybrid FastTrack starts with the sound analysis and FastTrack with
// nothing.
func Tab1(rows []Fig5Row) []Tab1Row {
	var out []Tab1Row
	for _, r := range rows {
		if r.RaceFree {
			continue
		}
		optStart := r.ProfileSec + r.PredSec
		out = append(out, Tab1Row{
			Name:              r.Name,
			SoundSec:          r.SoundSec,
			ProfileSec:        r.ProfileSec,
			ProfileRuns:       r.ProfileRuns,
			PredSec:           r.PredSec,
			BreakEvenVsHybrid: breakEven(optStart, r.SoundSec, r.Norm(r.HybridSec), r.Norm(r.OptSec)),
			BreakEvenVsFT:     breakEven(optStart, 0, r.Norm(r.FTSec), r.Norm(r.OptSec)),
			SpeedupVsHybrid:   ratio(r.HybridSec, r.OptSec),
			SpeedupVsFT:       ratio(r.FTSec, r.OptSec),
		})
	}
	return out
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// breakEven solves optStart + optRate*T <= tradStart + tradRate*T for
// the baseline-execution time T (seconds).
func breakEven(optStart, tradStart, tradRate, optRate float64) float64 {
	if optRate >= tradRate {
		if optStart <= tradStart {
			return 0
		}
		return math.Inf(1)
	}
	t := (optStart - tradStart) / (tradRate - optRate)
	if t < 0 {
		return 0
	}
	return t
}

// PrintTab1 renders the Table 1 table.
func PrintTab1(w io.Writer, rows []Tab1Row) {
	fmt.Fprintf(w, "Table 1: OptFT end-to-end analysis economics\n")
	fmt.Fprintf(w, "%-11s %11s %16s %11s | %14s %12s | %9s %9s\n",
		"benchmark", "static(ms)", "profile(ms)/runs", "pred(ms)", "breakeven-hyb", "breakeven-ft", "spd-hyb", "spd-ft")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %11.2f %11.2f/%4d %11.2f | %14s %12s | %8.2fx %8.2fx\n",
			r.Name, r.SoundSec*1000, r.ProfileSec*1000, r.ProfileRuns, r.PredSec*1000,
			fmtBE(r.BreakEvenVsHybrid), fmtBE(r.BreakEvenVsFT),
			r.SpeedupVsHybrid, r.SpeedupVsFT)
	}
}

func fmtBE(t float64) string {
	if math.IsInf(t, 1) {
		return "never"
	}
	if t == 0 {
		return "0s"
	}
	if t < 1 {
		return fmt.Sprintf("%.1fms", t*1000)
	}
	return fmt.Sprintf("%.2fs", t)
}
