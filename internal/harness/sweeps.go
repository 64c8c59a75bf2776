package harness

import (
	"fmt"
	"io"

	"oha/internal/core"
	"oha/internal/workloads"
)

// SweepPoint is one (profiling effort, outcome) sample for the
// Figure 7 / Figure 8 sweeps.
type SweepPoint struct {
	ProfileRuns int
	// MisSpecRate is the fraction of testing executions that violated
	// an invariant (Figure 7).
	MisSpecRate float64
	// SliceSize is the average predicated static slice size over the
	// endpoint set (Figure 8).
	SliceSize float64
}

// SweepRow is one benchmark's profiling sweep.
type SweepRow struct {
	Name   string
	Points []SweepPoint
}

// defaultSweep is the profiling-set size series.
var defaultSweep = []int{1, 2, 4, 8, 16, 32, 64}

// Sweep runs the Figure 7 + Figure 8 profiling sweeps for the slicing
// suite: for growing profiling sets, measure mis-speculation rates on
// the testing set and the resulting predicated static slice sizes.
// Workloads run on the experiment worker pool; the per-run databases of
// successive sweep points overlap, so a warm artifact cache profiles
// each execution exactly once across the whole sweep.
func Sweep(opts Options) ([]SweepRow, error) {
	opts = opts.Defaults()
	return mapOrdered(opts.Parallel, workloads.Slices(), func(_ int, w *workloads.Workload) (SweepRow, error) {
		prog := w.Prog()
		criterion := lastPrint(prog)
		row := SweepRow{Name: w.Name}
		for _, k := range defaultSweep {
			execs := make([]core.Execution, k)
			for i := range execs {
				execs[i] = profileExec(w, i)
			}
			pt := SweepPoint{ProfileRuns: k}
			db, err := core.ProfileNWith(prog, execs, opts.Parallel, opts.Cache)
			if err != nil {
				return SweepRow{}, fmt.Errorf("%s: profiling %d runs: %w", w.Name, k, err)
			}
			opt, err := core.NewOptSliceCached(prog, db, criterion, opts.Budget, opts.Cache)
			if err != nil {
				return SweepRow{}, fmt.Errorf("%s: static: %w", w.Name, err)
			}
			pt.SliceSize = float64(opt.Static.Size())
			miss := 0
			trials := opts.TestRuns * 3
			for i := 0; i < trials; i++ {
				rep, err := opt.Run(testExec(w, i), core.RunOptions{})
				if err != nil {
					return SweepRow{}, fmt.Errorf("%s: test run: %w", w.Name, err)
				}
				if rep.RolledBack {
					miss++
				}
			}
			pt.MisSpecRate = float64(miss) / float64(trials)
			row.Points = append(row.Points, pt)
		}
		return row, nil
	})
}

// PrintFig7 renders the mis-speculation-rate series (Figure 7).
func PrintFig7(w io.Writer, rows []SweepRow) {
	fmt.Fprintf(w, "Figure 7: mis-speculation rate vs profiling effort\n")
	fmt.Fprintf(w, "%-8s", "runs")
	for _, k := range defaultSweep {
		fmt.Fprintf(w, " %7d", k)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s", r.Name)
		for _, p := range r.Points {
			fmt.Fprintf(w, " %6.1f%%", 100*p.MisSpecRate)
		}
		fmt.Fprintln(w)
	}
}

// PrintFig8 renders the slice-size series (Figure 8).
func PrintFig8(w io.Writer, rows []SweepRow) {
	fmt.Fprintf(w, "Figure 8: predicated static slice size vs number of profiling runs\n")
	fmt.Fprintf(w, "%-8s", "runs")
	for _, k := range defaultSweep {
		fmt.Fprintf(w, " %7d", k)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s", r.Name)
		for _, p := range r.Points {
			fmt.Fprintf(w, " %7.0f", p.SliceSize)
		}
		fmt.Fprintln(w)
	}
}
