package harness

import (
	"fmt"
	"io"
	"math"

	"oha/internal/core"
	"oha/internal/workloads"
)

// Fig5Row is one benchmark's Figure 5 measurement: normalized runtimes
// of FastTrack, hybrid FastTrack, and OptFT, with the work breakdown.
type Fig5Row struct {
	Name     string
	RaceFree bool // right of the red line: statically proven race-free

	PlainSec  float64 // framework (uninstrumented) baseline
	FTSec     float64
	HybridSec float64
	OptSec    float64

	// Deterministic work counters, summed over the testing set.
	FTEvents     uint64 // instrumented ops under full FastTrack
	HybridEvents uint64
	OptEvents    uint64 // includes invariant-check events
	CheckEvents  uint64 // invariant-check share of OptEvents
	Rollbacks    int    // mis-speculated testing runs

	// Static results.
	SoundPairs int // racy pairs the sound analysis reports
	PredPairs  int
}

// Norm returns runtime normalized to the uninstrumented baseline.
func (r Fig5Row) Norm(sec float64) float64 {
	if r.PlainSec <= 0 {
		return 0
	}
	return sec / r.PlainSec
}

// raceSetup bundles the per-benchmark artifacts shared by fig5/tab1.
type raceSetup struct {
	w          *workloads.Workload
	pr         *core.ProfileResult
	profileSec float64
	opt        *core.OptFT
	soundSec   float64 // sound static analysis seconds
	predSec    float64 // predicated static analysis + custom-sync seconds
}

func setupRace(w *workloads.Workload, e *env) (*raceSetup, error) {
	pr, profSec, err := profiled(w, e)
	if err != nil {
		return nil, err
	}
	s := &raceSetup{w: w, pr: pr, profileSec: profSec}
	s.soundSec, err = e.timed(func() error {
		_, err := core.NewHybridFT(w.Prog(), core.StaticConfig{Cache: e.opts.Cache, Workers: 1})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: sound static: %w", w.Name, err)
	}
	s.predSec, err = e.timed(func() error {
		o, err := core.NewOptFTCached(w.Prog(), pr.DB, e.opts.Cache)
		if err != nil {
			return err
		}
		s.opt = o
		// Custom-sync validation over (a few of) the profiling runs.
		n := pr.Runs
		if n > 4 {
			n = 4
		}
		execs := make([]core.Execution, n)
		for i := range execs {
			execs[i] = profileExec(w, i)
		}
		return o.ValidateCustomSync(execs, core.RunOptions{})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: predicated static: %w", w.Name, err)
	}
	return s, nil
}

// Fig5 measures the race-detection suite. Workloads run on the
// experiment worker pool (Options.Parallel); rows keep the Figure 5
// order and every deterministic column is independent of the pool size.
func Fig5(opts Options) ([]Fig5Row, error) {
	opts = opts.Defaults()
	env := newEnv(opts)
	return mapOrdered(opts.Parallel, workloads.Races(), func(_ int, w *workloads.Workload) (Fig5Row, error) {
		return fig5Row(env, w)
	})
}

// fig5Row measures one benchmark for Figure 5.
func fig5Row(env *env, w *workloads.Workload) (Fig5Row, error) {
	opts := env.opts
	s, err := setupRace(w, env)
	if err != nil {
		return Fig5Row{}, err
	}
	row := Fig5Row{
		Name:       w.Name,
		RaceFree:   w.RaceFree,
		SoundPairs: len(s.opt.Sound.Static.Pairs),
		PredPairs:  len(s.opt.Pred.Pairs),
	}

	prog := w.Prog()
	plain := plainRunner(prog)
	for i := 0; i < opts.TestRuns; i++ {
		e := testExec(w, i)
		sec, err := env.timedN(func() error {
			_, err := plain(e)
			return err
		})
		if err != nil {
			return Fig5Row{}, fmt.Errorf("%s: plain: %w", w.Name, err)
		}
		row.PlainSec += sec

		var ft, hy, op *core.RaceReport
		sec, err = env.timedN(func() error {
			ft, err = core.RunFastTrack(prog, e, core.RunOptions{})
			return err
		})
		if err != nil {
			return Fig5Row{}, fmt.Errorf("%s: fasttrack: %w", w.Name, err)
		}
		row.FTSec += sec
		row.FTEvents += ft.Stats.InstrumentedOps()

		sec, err = env.timedN(func() error {
			hy, err = s.opt.Sound.Run(e, core.RunOptions{})
			return err
		})
		if err != nil {
			return Fig5Row{}, fmt.Errorf("%s: hybrid: %w", w.Name, err)
		}
		row.HybridSec += sec
		row.HybridEvents += hy.Stats.InstrumentedOps()

		sec, err = env.timedN(func() error {
			op, err = s.opt.Run(e, core.RunOptions{})
			return err
		})
		if err != nil {
			return Fig5Row{}, fmt.Errorf("%s: optimistic: %w", w.Name, err)
		}
		row.OptSec += sec
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
	return row, nil
}

// PrintFig5 renders the Figure 5 table.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "Figure 5: normalized race-detection runtimes (x = runtime / uninstrumented)\n")
	fmt.Fprintf(w, "%-11s %9s %9s %9s | %12s %12s %12s %7s %9s\n",
		"benchmark", "FastTrack", "HybridFT", "OptFT", "FT events", "Hyb events", "Opt events", "checks%", "rollbacks")
	for _, r := range rows {
		marker := ""
		if r.RaceFree {
			marker = " *" // right of the paper's red line
		}
		checkPct := 0.0
		if r.OptEvents > 0 {
			checkPct = 100 * float64(r.CheckEvents) / float64(r.OptEvents)
		}
		fmt.Fprintf(w, "%-11s %8.2fx %8.2fx %8.2fx | %12d %12d %12d %6.1f%% %9d%s\n",
			r.Name, r.Norm(r.FTSec), r.Norm(r.HybridSec), r.Norm(r.OptSec),
			r.FTEvents, r.HybridEvents, r.OptEvents, checkPct, r.Rollbacks, marker)
	}
	fmt.Fprintf(w, "(* = statically proven race-free by the sound analysis)\n")
}

// Tab1Row is one benchmark's Table 1 measurement.
type Tab1Row struct {
	Name        string
	SoundSec    float64 // traditional hybrid static analysis time
	ProfileSec  float64
	ProfileRuns int
	PredSec     float64 // optimistic static analysis (+ custom-sync) time

	// Break-even baseline-execution seconds (math.Inf(1) = never).
	BreakEvenVsHybrid float64
	BreakEvenVsFT     float64
	// Dynamic speedups.
	SpeedupVsHybrid float64
	SpeedupVsFT     float64
}

// Tab1 computes end-to-end analysis economics for the benchmarks not
// statically proven race-free (Table 1 lists exactly those).
func Tab1(opts Options) ([]Tab1Row, error) {
	opts = opts.Defaults()
	fig5, err := Fig5(opts)
	if err != nil {
		return nil, err
	}
	byName := map[string]Fig5Row{}
	for _, r := range fig5 {
		byName[r.Name] = r
	}
	env := newEnv(opts)
	var racy []*workloads.Workload
	for _, w := range workloads.Races() {
		if !w.RaceFree {
			racy = append(racy, w)
		}
	}
	return mapOrdered(opts.Parallel, racy, func(_ int, w *workloads.Workload) (Tab1Row, error) {
		f5 := byName[w.Name]
		s, err := setupRace(w, env)
		if err != nil {
			return Tab1Row{}, err
		}
		row := Tab1Row{
			Name:        w.Name,
			SoundSec:    s.soundSec,
			ProfileSec:  s.profileSec,
			ProfileRuns: s.pr.Runs,
			PredSec:     s.predSec,
		}
		row.SpeedupVsHybrid = ratio(f5.HybridSec, f5.OptSec)
		row.SpeedupVsFT = ratio(f5.FTSec, f5.OptSec)
		row.BreakEvenVsHybrid = breakEven(
			s.profileSec+s.predSec+s.soundSec, // optimistic startup (incl. rollback fallback analysis)
			s.soundSec,                        // traditional startup
			f5.HybridSec/f5.PlainSec, f5.OptSec/f5.PlainSec)
		row.BreakEvenVsFT = breakEven(
			s.profileSec+s.predSec+s.soundSec,
			0,
			f5.FTSec/f5.PlainSec, f5.OptSec/f5.PlainSec)
		return row, nil
	})
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
	fmt.Fprintf(w, "%-11s %11s %15s %11s | %14s %12s | %9s %9s\n",
		"benchmark", "static(ms)", "profile(ms/run)", "pred(ms)", "breakeven-hyb", "breakeven-ft", "spd-hyb", "spd-ft")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %11.2f %10.2f/%3d %11.2f | %14s %12s | %8.2fx %8.2fx\n",
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
