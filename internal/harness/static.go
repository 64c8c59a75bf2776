package harness

import (
	"fmt"
	"io"

	"oha/internal/core"
	"oha/internal/ir"
	"oha/internal/pointsto"
	"oha/internal/workloads"
)

// avgSlice returns the average static slice size over prog's
// endpoints, its print instructions, under the slicer projection f,
// with the analysis type the budgeted slicer reached (core.BuildSlicer,
// memoized in opts.Cache).
func avgSlice(opts Options, prog *ir.Program, f core.SlicerFacts) (float64, core.SliceAnalysisType, error) {
	sl, at, err := core.BuildSlicer(prog, f, opts.Cache)
	eps := core.Prints(prog)
	if err != nil || len(eps) == 0 {
		return 0, at, err
	}
	total := 0
	for _, e := range eps {
		total += sl.BackwardSlice(e).Size()
	}
	return float64(total) / float64(len(eps)), at, nil
}

// Fig9Row reports base vs optimistic alias rates (Figure 9).
type Fig9Row struct {
	Name     string
	BaseRate float64
	OptRate  float64
	BaseAT   core.SliceAnalysisType
	OptAT    core.SliceAnalysisType
}

// Fig9 measures points-to precision. Workloads run on the experiment
// worker pool; rows keep the suite order.
func Fig9(opts Options) ([]Fig9Row, error) {
	opts = opts.Defaults()
	return mapOrdered(opts.Parallel, workloads.Slices(), func(_ int, w *workloads.Workload) (Fig9Row, error) {
		pr, err := profiled(w, opts, opts.Cache)
		if err != nil {
			return Fig9Row{}, err
		}
		baseSl, baseAT, err := core.BuildSlicer(w.Prog(), core.SlicerFactsOf(nil, opts.Budget), opts.Cache)
		if err != nil {
			return Fig9Row{}, fmt.Errorf("%s: base points-to: %w", w.Name, err)
		}
		optSl, optAT, err := core.BuildSlicer(w.Prog(), core.SlicerFactsOf(pr.DB, opts.Budget), opts.Cache)
		if err != nil {
			return Fig9Row{}, fmt.Errorf("%s: optimistic points-to: %w", w.Name, err)
		}
		base, opt := baseSl.PointsTo(), optSl.PointsTo()
		// Fairness (§6.3): both rates are computed over the loads and
		// stores present in the optimistic analysis.
		var loads, stores []*ir.Instr
		for _, in := range opt.SeededInstrs() {
			switch in.Op {
			case ir.OpLoad:
				loads = append(loads, in)
			case ir.OpStore:
				stores = append(stores, in)
			}
		}
		return Fig9Row{
			Name:     w.Name,
			BaseRate: base.AliasRateOver(loads, stores),
			OptRate:  opt.AliasRateOver(loads, stores),
			BaseAT:   baseAT,
			OptAT:    optAT,
		}, nil
	})
}

// PrintFig9 renders the alias-rate comparison.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintf(w, "Figure 9: load/store alias rates, base vs optimistic points-to\n")
	fmt.Fprintf(w, "%-8s %10s %10s %6s %6s\n", "bench", "base", "optimistic", "bAT", "oAT")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10.4f %10.4f %6s %6s\n", r.Name, r.BaseRate, r.OptRate, r.BaseAT, r.OptAT)
	}
}

// Fig10Row reports sound vs predicated static slice sizes (Figure 10).
type Fig10Row struct {
	Name      string
	BaseSize  float64 // average over the endpoint set
	OptSize   float64
	Endpoints int
}

// Fig10 measures static slice sizes. Workloads run on the experiment
// worker pool; a warm cache shares the sound and predicated slicers
// with Figures 9 and 11.
func Fig10(opts Options) ([]Fig10Row, error) {
	opts = opts.Defaults()
	return mapOrdered(opts.Parallel, workloads.Slices(), func(_ int, w *workloads.Workload) (Fig10Row, error) {
		prog := w.Prog()
		pr, err := profiled(w, opts, opts.Cache)
		if err != nil {
			return Fig10Row{}, err
		}
		base, _, err := avgSlice(opts, prog, core.SlicerFactsOf(nil, opts.Budget))
		if err != nil {
			return Fig10Row{}, err
		}
		opt, _, err := avgSlice(opts, prog, core.SlicerFactsOf(pr.DB, opts.Budget))
		if err != nil {
			return Fig10Row{}, err
		}
		return Fig10Row{
			Name:      w.Name,
			BaseSize:  base,
			OptSize:   opt,
			Endpoints: len(core.Prints(prog)),
		}, nil
	})
}

// PrintFig10 renders the slice-size comparison.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "Figure 10: average static slice sizes (instructions), sound vs predicated\n")
	fmt.Fprintf(w, "%-8s %10s %11s %10s\n", "bench", "base", "optimistic", "reduction")
	for _, r := range rows {
		red := 0.0
		if r.OptSize > 0 {
			red = r.BaseSize / r.OptSize
		}
		fmt.Fprintf(w, "%-8s %10.1f %11.1f %9.2fx\n", r.Name, r.BaseSize, r.OptSize, red)
	}
}

// Fig11Row reports the per-invariant ablation (Figure 11): slice size
// as each likely invariant is enabled on top of the previous ones.
type Fig11Row struct {
	Name string
	// Sizes under: sound baseline; +likely-unreachable code; +likely
	// callee sets; +likely-unused call contexts.
	Base, LUC, Callees, Contexts float64
	// ATs reached at each step (the context invariant can unlock CS).
	BaseAT, ContextsAT core.SliceAnalysisType
}

// Fig11 measures the invariant ablation. Workloads run on the
// experiment worker pool; each ablation step is a slicer projection,
// memoized by its digest, so the sound baseline and the full-database
// step share their slicers with Figures 9/10.
func Fig11(opts Options) ([]Fig11Row, error) {
	opts = opts.Defaults()
	return mapOrdered(opts.Parallel, workloads.Slices(), func(_ int, w *workloads.Workload) (Fig11Row, error) {
		prog := w.Prog()
		pr, err := profiled(w, opts, opts.Cache)
		if err != nil {
			return Fig11Row{}, err
		}
		// The steps: the sound baseline; + likely-unreachable code (callee
		// sets off, every context allowed); + likely callee sets; +
		// likely-unused call contexts (may unlock CS).
		full := core.SlicerFactsOf(pr.DB, opts.Budget)
		steps := []core.SlicerFacts{
			core.SlicerFactsOf(nil, opts.Budget),
			{PointsTo: &pointsto.Facts{Visited: pr.DB.Visited}, Budget: opts.Budget},
			{PointsTo: full.PointsTo, Budget: opts.Budget},
			full,
		}
		row := Fig11Row{Name: w.Name}
		sizes := []*float64{&row.Base, &row.LUC, &row.Callees, &row.Contexts}
		ats := make([]core.SliceAnalysisType, len(steps))
		for i, f := range steps {
			if *sizes[i], ats[i], err = avgSlice(opts, prog, f); err != nil {
				return Fig11Row{}, err
			}
		}
		row.BaseAT, row.ContextsAT = ats[0], ats[3]
		return row, nil
	})
}

// PrintFig11 renders the ablation table.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintf(w, "Figure 11: average static slice size as likely invariants are added\n")
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %12s\n",
		"bench", "base", "+LUC", "+callees", "+contexts", "AT base→ctx")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10.1f %10.1f %10.1f %10.1f %8s→%s\n",
			r.Name, r.Base, r.LUC, r.Callees, r.Contexts, r.BaseAT, r.ContextsAT)
	}
}
