package harness

import (
	"errors"
	"fmt"
	"io"

	"oha/internal/artifacts"
	"oha/internal/bitset"
	"oha/internal/core"
	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/pointsto"
	"oha/internal/staticslice"
	"oha/internal/workloads"
)

// bestPointsTo runs the most precise points-to analysis that fits the
// budget, mirroring core.buildSlicer's discipline: context-sensitive
// first — optionally restricted to the profiled contexts — falling back
// to context-insensitive when the clone budget is exhausted.
func bestPointsTo(prog *ir.Program, db *invariants.DB, budget int, restrictCtx bool) (*pointsto.Result, core.SliceAnalysisType, error) {
	var allowed *invariants.ContextSet
	if restrictCtx && db != nil {
		allowed = db.Contexts
	}
	pt, err := pointsto.Analyze(prog, ctxs.NewCS(prog, budget, allowed), db)
	if err == nil {
		return pt, core.CS, nil
	}
	if !errors.Is(err, ctxs.ErrBudget) {
		return nil, core.CI, err
	}
	pt, err = pointsto.Analyze(prog, ctxs.NewCI(prog), db)
	return pt, core.CI, err
}

// ptArtifact pairs a points-to result with the analysis tier reached.
// It is cached read-only: pointsto.Result is immutable after Analyze.
type ptArtifact struct {
	pt *pointsto.Result
	at core.SliceAnalysisType
}

// cachedPointsTo memoizes bestPointsTo by content address (memory layer
// only: the result graph is pointer-laden). A nil db makes restrictCtx
// irrelevant, so the flag is normalized to share one cache entry.
func cachedPointsTo(opts Options, prog *ir.Program, db *invariants.DB, restrictCtx bool) (*pointsto.Result, core.SliceAnalysisType, error) {
	if db == nil {
		restrictCtx = false
	}
	key := artifacts.Key(artifacts.KindPointsTo, prog, db, opts.Budget,
		"best", fmt.Sprintf("restrict=%v", restrictCtx))
	v, err := opts.Cache.Memo(key, nil, func() (any, error) {
		pt, at, err := bestPointsTo(prog, db, opts.Budget, restrictCtx)
		if err != nil {
			return nil, err
		}
		return ptArtifact{pt, at}, nil
	})
	if err != nil {
		return nil, core.CI, err
	}
	a := v.(ptArtifact)
	return a.pt, a.at, nil
}

// avgSliceArtifact memoizes the Figure 10/11 endpoint-set average.
type avgSliceArtifact struct {
	size float64
	at   core.SliceAnalysisType
}

// cachedAvgSlice returns the average static slice size over the
// program's endpoints under the given invariant database, memoized by
// content address (Figures 10 and 11 share entries where their
// configurations coincide).
func cachedAvgSlice(opts Options, prog *ir.Program, db *invariants.DB, restrictCtx bool) (float64, core.SliceAnalysisType, error) {
	if db == nil {
		restrictCtx = false
	}
	key := artifacts.Key(artifacts.KindSlice, prog, db, opts.Budget,
		"avg-endpoints", fmt.Sprintf("restrict=%v", restrictCtx))
	v, err := opts.Cache.Memo(key, nil, func() (any, error) {
		pt, at, err := cachedPointsTo(opts, prog, db, restrictCtx)
		if err != nil {
			return nil, err
		}
		return avgSliceArtifact{avgSliceSize(staticslice.New(pt), endpoints(prog)), at}, nil
	})
	if err != nil {
		return 0, core.CI, err
	}
	a := v.(avgSliceArtifact)
	return a.size, a.at, nil
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
		base, baseAT, err := cachedPointsTo(opts, w.Prog(), nil, false)
		if err != nil {
			return Fig9Row{}, fmt.Errorf("%s: base points-to: %w", w.Name, err)
		}
		opt, optAT, err := cachedPointsTo(opts, w.Prog(), pr.DB, true)
		if err != nil {
			return Fig9Row{}, fmt.Errorf("%s: optimistic points-to: %w", w.Name, err)
		}
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

// endpoints returns the slice endpoints used for the static figures:
// every print instruction of the program.
func endpoints(prog *ir.Program) []*ir.Instr {
	var out []*ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpPrint {
			out = append(out, in)
		}
	}
	return out
}

func avgSliceSize(sl *staticslice.Slicer, eps []*ir.Instr) float64 {
	if len(eps) == 0 {
		return 0
	}
	total := 0
	for _, e := range eps {
		total += sl.BackwardSlice(e).Size()
	}
	return float64(total) / float64(len(eps))
}

// Fig10 measures static slice sizes. Workloads run on the experiment
// worker pool; a warm cache shares the per-configuration averages with
// Figure 11.
func Fig10(opts Options) ([]Fig10Row, error) {
	opts = opts.Defaults()
	return mapOrdered(opts.Parallel, workloads.Slices(), func(_ int, w *workloads.Workload) (Fig10Row, error) {
		prog := w.Prog()
		pr, err := profiled(w, opts, opts.Cache)
		if err != nil {
			return Fig10Row{}, err
		}
		base, _, err := cachedAvgSlice(opts, prog, nil, false)
		if err != nil {
			return Fig10Row{}, err
		}
		opt, _, err := cachedAvgSlice(opts, prog, pr.DB, true)
		if err != nil {
			return Fig10Row{}, err
		}
		return Fig10Row{
			Name:      w.Name,
			BaseSize:  base,
			OptSize:   opt,
			Endpoints: len(endpoints(prog)),
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
// experiment worker pool; each ablation step is memoized by the content
// address of its invariant configuration, so the sound baseline and the
// full-database step share cache entries with Figures 9/10.
func Fig11(opts Options) ([]Fig11Row, error) {
	opts = opts.Defaults()
	return mapOrdered(opts.Parallel, workloads.Slices(), func(_ int, w *workloads.Workload) (Fig11Row, error) {
		prog := w.Prog()
		pr, err := profiled(w, opts, opts.Cache)
		if err != nil {
			return Fig11Row{}, err
		}
		row := Fig11Row{Name: w.Name}

		// Sound baseline.
		row.Base, row.BaseAT, err = cachedAvgSlice(opts, prog, nil, false)
		if err != nil {
			return Fig11Row{}, err
		}
		// + likely-unreachable code only.
		lucOnly := lucOnlyDB(pr.DB, prog)
		row.LUC, _, err = cachedAvgSlice(opts, prog, lucOnly, false)
		if err != nil {
			return Fig11Row{}, err
		}
		// + likely callee sets.
		withCallees := lucOnly.Clone()
		withCallees.Callees = map[int]*bitset.Set{}
		for k, v := range pr.DB.Callees {
			withCallees.Callees[k] = v.Clone()
		}
		row.Callees, _, err = cachedAvgSlice(opts, prog, withCallees, false)
		if err != nil {
			return Fig11Row{}, err
		}
		// + likely-unused call contexts (may unlock CS).
		row.Contexts, row.ContextsAT, err = cachedAvgSlice(opts, prog, pr.DB, true)
		if err != nil {
			return Fig11Row{}, err
		}
		return row, nil
	})
}

// lucOnlyDB builds a database with only the visited-blocks invariant
// active: callee sets disabled (nil map: sound resolution) and every
// context allowed.
func lucOnlyDB(db *invariants.DB, prog *ir.Program) *invariants.DB {
	out := invariants.NewDB()
	out.Visited = db.Visited.Clone()
	out.Callees = nil // invariant disabled
	// All-contexts: leave Contexts empty and never pass it as a
	// restriction (the measure() helper only restricts on request).
	_ = prog
	return out
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
