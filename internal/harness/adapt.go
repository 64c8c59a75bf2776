package harness

import (
	"fmt"
	"io"

	"oha/internal/adapt"
	"oha/internal/core"
	"oha/internal/workloads"
)

// AdaptRow is one benchmark's adaptive-speculation measurement: the
// closed violation → refinement → re-analysis loop run over the
// testing set. Every field except ResolveSec is deterministic — a pure
// function of the workload's inputs — and independent of
// Options.Parallel.
type AdaptRow struct {
	Name     string
	TestRuns int

	// Attempts counts optimistic runs including retries; Rollbacks the
	// attempts that mis-speculated. With adaptation each violated fact
	// costs exactly one rollback, so Attempts = TestRuns + Rollbacks.
	Attempts  int
	Rollbacks int
	// Generations is the final deployed generation (1 = nothing ever
	// refined). PostRefineRollbacks counts rollbacks under a refined
	// configuration — fresh facts violated later, never a repeat.
	Generations         int
	PostRefineRollbacks uint64
	// ResolveSec is the total background re-analysis wall clock that
	// produced generations 2..n (machine-dependent; excluded from the
	// determinism guarantee).
	ResolveSec float64

	// DBDigests and MaskDigests fingerprint the generation history in
	// deployment order — the bit-identical-across-worker-counts
	// sequence the adaptive layer guarantees.
	DBDigests   []string
	MaskDigests []string
}

// Adaptive runs the race suite through the adaptive speculation
// manager: profile once, then feed the testing set through the
// refine-and-retry loop, verifying every attempt against full
// FastTrack (rollback re-execution keeps each attempt sound; the
// retries only recover speculation). Workloads fan out over the
// experiment pool; within one workload the testing runs are
// sequential, because the generation history is defined by observation
// order.
func Adaptive(opts Options) ([]AdaptRow, error) {
	opts = opts.Defaults()
	return mapOrdered(opts.Parallel, workloads.Races(), func(_ int, w *workloads.Workload) (AdaptRow, error) {
		return adaptiveRow(opts, w)
	})
}

func adaptiveRow(opts Options, w *workloads.Workload) (AdaptRow, error) {
	pr, err := profiled(w, opts, opts.Cache)
	if err != nil {
		return AdaptRow{}, err
	}
	prog := w.Prog()
	m := adapt.New(prog, pr.DB, adapt.Options{Static: core.StaticConfig{Cache: opts.Cache}})
	row := AdaptRow{Name: w.Name, TestRuns: opts.TestRuns}
	for i := 0; i < opts.TestRuns; i++ {
		e := testExec(w, i)
		ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
		if err != nil {
			return AdaptRow{}, fmt.Errorf("%s: fasttrack: %w", w.Name, err)
		}
		attempts, err := adapt.Run(m, core.Race(), e, core.RunOptions{})
		if err != nil {
			return AdaptRow{}, fmt.Errorf("%s: adaptive run %d: %w", w.Name, i, err)
		}
		for _, a := range attempts {
			row.Attempts++
			if a.Report.RolledBack {
				row.Rollbacks++
			}
			// Soundness gate across every generation.
			if !core.SameRaces(ft, a.Report) {
				return AdaptRow{}, fmt.Errorf("%s: generation %d diverged from FastTrack (ft=%v opt=%v)",
					w.Name, a.Generation, ft.Races, a.Report.Races)
			}
		}
	}
	st := m.Status()
	row.Generations = st.Generation
	row.PostRefineRollbacks = st.PostRefineRollbacks
	for _, g := range st.History {
		row.ResolveSec += g.ResolveSeconds
		row.DBDigests = append(row.DBDigests, g.DBDigest)
		row.MaskDigests = append(row.MaskDigests, g.MaskDigest)
	}
	return row, nil
}

// PrintAdaptive renders the adaptive-speculation table.
func PrintAdaptive(w io.Writer, rows []AdaptRow) {
	fmt.Fprintf(w, "Adaptive speculation: violation -> refinement -> re-analysis over the testing set\n")
	fmt.Fprintf(w, "%-11s %5s %9s %10s %12s %12s %12s\n",
		"benchmark", "runs", "attempts", "rollbacks", "generations", "post-refine", "resolve(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %5d %9d %10d %12d %12d %12.2f\n",
			r.Name, r.TestRuns, r.Attempts, r.Rollbacks, r.Generations,
			r.PostRefineRollbacks, r.ResolveSec*1000)
	}
	fmt.Fprintf(w, "(attempts = runs + rollbacks: each violated fact is refined away after one rollback)\n")
}
