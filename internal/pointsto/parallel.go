package pointsto

import (
	"runtime"
	"sort"
	"sync"

	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
)

// AnalyzeParallel is Analyze with a parallel worklist solver (Solve).
func AnalyzeParallel(prog *ir.Program, tree *ctxs.Tree, db *invariants.DB, workers int) (*Result, error) {
	return Solve(prog, tree, FactsOf(db), workers)
}

// Solve runs the points-to analysis of prog over tree, predicated on f
// (nil: sound). workers <= 0 selects GOMAXPROCS; workers == 1 is the
// sequential worklist solver. The analysis result is deterministic and
// identical for every worker count: the solver runs in bulk-synchronous frontier rounds
// where workers only compute copy-propagation unions (commutative, so
// chunk assignment cannot change the outcome) and all state mutation —
// delta application, content-node allocation, context extension,
// constraint seeding — happens on one goroutine in ascending node
// order.
func Solve(prog *ir.Program, tree *ctxs.Tree, f *Facts, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a := newAnalysis(prog, tree, f)
	solve := a.solve
	if workers > 1 {
		solve = func() error { return a.solveParallel(workers) }
	}
	if err := solve(); err != nil {
		return nil, err
	}
	return &Result{Prog: prog, Tree: tree, a: a}, nil
}

// solveParallel drains the worklist in frontier rounds:
//
//	Phase A (parallel, read-only): the sorted frontier is split into
//	contiguous chunks — an approximation of per-SCC partitioning, since
//	node IDs are allocated per context and copy-edge cycles are
//	overwhelmingly intra-context — and each worker computes, for the
//	copy successors of its chunk, the union of incoming frontier
//	points-to sets into a worker-local delta map.
//
//	Phase B (sequential, deterministic): merged deltas are applied in
//	ascending target order, then each frontier node's dereference
//	constraints (loads, stores, indirect calls — the parts that
//	allocate nodes and seed constraints) run in ascending node order.
//	Nodes that changed form the next frontier.
//
// Worker count only changes who computes commutative unions, so the
// whole solve — including internal node/object/context numbering — is
// bit-identical across worker counts.
func (a *analysis) solveParallel(workers int) error {
	if err := a.seedCtx(a.tree.Root()); err != nil {
		return err
	}
	for len(a.work) > 0 {
		frontier := a.takeFrontier()

		nw := workers
		if nw > len(frontier) {
			nw = len(frontier)
		}
		chunk := (len(frontier) + nw - 1) / nw
		deltas := make([]map[int]*bitset.Set, nw)
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				d := map[int]*bitset.Set{}
				for _, n := range frontier[lo:hi] {
					np := a.pts[n]
					for _, m := range a.copyTo[n] {
						s := d[m]
						if s == nil {
							s = &bitset.Set{}
							d[m] = s
						}
						s.UnionChanged(np)
					}
				}
				deltas[w] = d
			}(w, lo, hi)
		}
		wg.Wait()

		// Merge worker deltas (union is commutative — worker order is
		// irrelevant) and apply in ascending target order.
		merged := map[int]*bitset.Set{}
		var targets []int
		for _, d := range deltas {
			for m, s := range d {
				if cur := merged[m]; cur == nil {
					merged[m] = s
					targets = append(targets, m)
				} else {
					cur.UnionChanged(s)
				}
			}
		}
		sort.Ints(targets)
		for _, m := range targets {
			if a.pts[m].UnionChanged(merged[m]) {
				a.push(m)
			}
		}
		for _, n := range frontier {
			if err := a.processDeref(n); err != nil {
				return err
			}
		}
	}
	a.finish()
	return nil
}

// takeFrontier removes and returns the current worklist in ascending
// node order.
func (a *analysis) takeFrontier() []int {
	f := a.work
	a.work = nil
	for _, n := range f {
		a.inWork[n] = false
	}
	sort.Ints(f)
	return f
}
