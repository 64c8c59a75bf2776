package harness

import (
	"fmt"
	"io"

	"oha/internal/core"
	"oha/internal/workloads"
)

// Fig6Row is one benchmark's Figure 6 measurement: normalized runtimes
// of the traditional hybrid slicer and OptSlice.
type Fig6Row struct {
	Name string

	PlainSec  float64
	HybridSec float64
	OptSec    float64

	HybridNodes uint64 // dynamic trace nodes recorded (work metric)
	OptNodes    uint64
	CheckEvents uint64
	Rollbacks   int

	HybridStatic int // static slice sizes feeding the tracers
	OptStatic    int
	HybridAT     core.SliceAnalysisType
	OptAT        core.SliceAnalysisType
}

// Norm returns runtime normalized to the uninstrumented baseline.
func (r Fig6Row) Norm(sec float64) float64 {
	if r.PlainSec <= 0 {
		return 0
	}
	return sec / r.PlainSec
}

// sliceSetup bundles per-benchmark slicing artifacts.
type sliceSetup struct {
	w          *workloads.Workload
	pr         *core.ProfileResult
	profileSec float64
	opt        *core.OptSlice
	hy         *core.HybridSlicer
	soundSec   float64
	predSec    float64
}

func setupSlice(w *workloads.Workload, e *env) (*sliceSetup, error) {
	pr, profSec, err := profiled(w, e)
	if err != nil {
		return nil, err
	}
	prog := w.Prog()
	criterion := lastPrint(prog)
	s := &sliceSetup{w: w, pr: pr, profileSec: profSec}
	s.soundSec, err = e.timed(func() error {
		var err error
		s.hy, err = core.NewHybridSlicer(prog, criterion, e.opts.Budget, core.StaticConfig{Cache: e.opts.Cache, Workers: 1})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: sound static slice: %w", w.Name, err)
	}
	s.predSec, err = e.timed(func() error {
		var err error
		s.opt, err = core.NewOptSliceCached(prog, pr.DB, criterion, e.opts.Budget, e.opts.Cache)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: predicated static slice: %w", w.Name, err)
	}
	return s, nil
}

// Fig6 measures the slicing suite. Workloads run on the experiment
// worker pool (Options.Parallel); rows keep the Figure 6 order and
// every deterministic column is independent of the pool size.
func Fig6(opts Options) ([]Fig6Row, error) {
	opts = opts.Defaults()
	env := newEnv(opts)
	return mapOrdered(opts.Parallel, workloads.Slices(), func(_ int, w *workloads.Workload) (Fig6Row, error) {
		return fig6Row(env, w)
	})
}

// fig6Row measures one benchmark for Figure 6.
func fig6Row(env *env, w *workloads.Workload) (Fig6Row, error) {
	opts := env.opts
	s, err := setupSlice(w, env)
	if err != nil {
		return Fig6Row{}, err
	}
	row := Fig6Row{
		Name:         w.Name,
		HybridStatic: s.hy.Static.Size(),
		OptStatic:    s.opt.Static.Size(),
		HybridAT:     s.hy.AT,
		OptAT:        s.opt.AT,
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
			return Fig6Row{}, fmt.Errorf("%s: plain: %w", w.Name, err)
		}
		row.PlainSec += sec

		var hrep, orep *core.SliceReport
		sec, err = env.timedN(func() error {
			hrep, err = s.hy.Run(e, core.RunOptions{})
			return err
		})
		if err != nil {
			return Fig6Row{}, fmt.Errorf("%s: hybrid: %w", w.Name, err)
		}
		row.HybridSec += sec
		row.HybridNodes += uint64(hrep.TraceNodes)

		sec, err = env.timedN(func() error {
			orep, err = s.opt.Run(e, core.RunOptions{})
			return err
		})
		if err != nil {
			return Fig6Row{}, fmt.Errorf("%s: optimistic: %w", w.Name, err)
		}
		row.OptSec += sec
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
	return row, nil
}

// PrintFig6 renders the Figure 6 table.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintf(w, "Figure 6: normalized dynamic-slicing runtimes (x = runtime / uninstrumented)\n")
	fmt.Fprintf(w, "%-8s %12s %9s %8s | %12s %12s %8s %9s | %9s %9s\n",
		"bench", "Trad.Hybrid", "OptSlice", "speedup", "hyb nodes", "opt nodes", "checks", "rollbacks", "hyb stat", "opt stat")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %11.2fx %8.2fx %7.2fx | %12d %12d %8d %9d | %6d/%s %6d/%s\n",
			r.Name, r.Norm(r.HybridSec), r.Norm(r.OptSec), ratio(r.HybridSec, r.OptSec),
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
	OptSec   float64 // optimistic static analysis
	ProfSec  float64
	ProfRuns int

	BreakEvenSec   float64 // vs the traditional hybrid slicer
	DynamicSpeedup float64
}

// Tab2 computes the end-to-end slicing economics.
func Tab2(opts Options) ([]Tab2Row, error) {
	opts = opts.Defaults()
	fig6, err := Fig6(opts)
	if err != nil {
		return nil, err
	}
	byName := map[string]Fig6Row{}
	for _, r := range fig6 {
		byName[r.Name] = r
	}
	env := newEnv(opts)
	return mapOrdered(opts.Parallel, workloads.Slices(), func(_ int, w *workloads.Workload) (Tab2Row, error) {
		s, err := setupSlice(w, env)
		if err != nil {
			return Tab2Row{}, err
		}
		f6 := byName[w.Name]
		row := Tab2Row{
			Name:           w.Name,
			TradAT:         s.hy.AT,
			TradSec:        s.soundSec,
			OptAT:          s.opt.AT,
			OptSec:         s.predSec,
			ProfSec:        s.profileSec,
			ProfRuns:       s.pr.Runs,
			DynamicSpeedup: ratio(f6.HybridSec, f6.OptSec),
		}
		row.BreakEvenSec = breakEven(
			s.profileSec+s.predSec+s.soundSec, // optimistic startup (sound analysis kept for rollback)
			s.soundSec,
			f6.HybridSec/f6.PlainSec, f6.OptSec/f6.PlainSec)
		return row, nil
	})
}

// PrintTab2 renders the Table 2 table.
func PrintTab2(w io.Writer, rows []Tab2Row) {
	fmt.Fprintf(w, "Table 2: OptSlice end-to-end analysis economics\n")
	fmt.Fprintf(w, "%-8s | %4s %10s | %4s %10s %15s | %10s %9s\n",
		"bench", "tAT", "trad(ms)", "oAT", "opt(ms)", "profile(ms/run)", "breakeven", "dyn-spd")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s | %4s %10.2f | %4s %10.2f %10.2f/%4d | %10s %8.2fx\n",
			r.Name, r.TradAT, r.TradSec*1000, r.OptAT, r.OptSec*1000, r.ProfSec*1000, r.ProfRuns,
			fmtBE(r.BreakEvenSec), r.DynamicSpeedup)
	}
}
