package staticrace

import (
	"runtime"
	"sync"

	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/mhp"
	"oha/internal/pointsto"
)

// AnalyzeParallel is Analyze with the O(n²) access-pair enumeration
// partitioned across workers. Locksets, address points-to sets, and
// the MHP result are computed (or taken) up front and are read-only
// during enumeration; each worker owns a strided subset of the pair
// rows (row i = all pairs whose first access is the i-th), writes its
// rows into a private slot, and the rows are concatenated in ascending
// row order afterwards — so Pairs is bit-identical to the sequential
// enumeration for every worker count. workers <= 0 selects GOMAXPROCS.
func AnalyzeParallel(prog *ir.Program, pt *pointsto.Result, m *mhp.Result, db *invariants.DB, workers int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return Analyze(prog, pt, m, db)
	}
	s := prepare(prog, pt, m, FactsOf(db))

	// Strided row assignment balances the triangular workload (row i
	// evaluates len-i pairs, so contiguous chunks would be lopsided).
	rows := make([][][2]*ir.Instr, len(s.accesses))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(s.accesses); i += workers {
				var row [][2]*ir.Instr
				for j := i; j < len(s.accesses); j++ {
					if s.racyPair(i, j) {
						row = append(row, [2]*ir.Instr{s.accesses[i], s.accesses[j]})
					}
				}
				rows[i] = row
			}
		}(w)
	}
	wg.Wait()
	for _, row := range rows {
		for _, p := range row {
			s.res.addPair(p[0], p[1])
		}
	}

	if s.f != nil {
		s.res.computeElidableSyncs(pt, s.lockSites)
	}
	return s.res
}
