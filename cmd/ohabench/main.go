// Command ohabench regenerates the paper's evaluation tables and
// figures (§6) over the MiniLang workload suite.
//
// Usage:
//
//	ohabench -exp fig5|tab1|fig6|tab2|fig7|fig8|fig9|fig10|fig11|all
//	         [-profile-runs N] [-test-runs N] [-budget N] [-repeat N]
//	         [-parallel N] [-cache-dir DIR] [-cache-stats]
//
// Every experiment re-verifies the core soundness property while
// measuring: the optimistic analyses must produce results identical to
// their unoptimized counterparts on every run. All deterministic
// columns (event counts, node counts, slice sizes, rollbacks) are
// identical for every -parallel value; only wall-clock columns vary.
// Tables 1 and 2 are derived from the Figure 5 and Figure 6
// measurements, so each workload is timed once.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"oha/internal/artifacts"
	"oha/internal/harness"
)

// experiments are the -exp values; any other name would run nothing.
var experiments = []string{"fig5", "tab1", "fig6", "tab2", "fig7", "fig8", "fig9", "fig10", "fig11", "all"}

func knownExp(name string) bool { return slices.Contains(experiments, name) }

func main() {
	exp := flag.String("exp", "all", "experiment: fig5, tab1, fig6, tab2, fig7, fig8, fig9, fig10, fig11, or all")
	profileRuns := flag.Int("profile-runs", 32, "max profiling executions per benchmark")
	testRuns := flag.Int("test-runs", 8, "testing executions per benchmark")
	budget := flag.Int("budget", 24, "context-sensitive analysis clone budget")
	repeat := flag.Int("repeat", 3, "timing rounds per Figure 5/6 testing execution (median is reported)")
	parallel := flag.Int("parallel", 0, "experiment worker-pool size (0: GOMAXPROCS, 1: sequential)")
	cacheDir := flag.String("cache-dir", "", "persist the portable static artifacts of figures 7-11 under this directory (default: in-memory only)")
	cacheStats := flag.Bool("cache-stats", false, "print artifact-cache hit/miss counters on exit")
	flag.Parse()
	if !knownExp(*exp) {
		fmt.Fprintf(os.Stderr, "ohabench: unknown -exp %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	cache := artifacts.New(*cacheDir)
	opts := harness.Options{
		ProfileRuns: *profileRuns,
		TestRuns:    *testRuns,
		Budget:      *budget,
		Repeat:      *repeat,
		Parallel:    *parallel,
		Cache:       cache,
	}
	defer func() {
		if *cacheStats {
			st := cache.Stats()
			fmt.Fprintf(os.Stderr, "ohabench: artifact cache: %d lookups, %d memory hits, %d disk hits, %d misses\n",
				st.Lookups(), st.Hits, st.DiskHits, st.Misses)
		}
	}()

	wants := func(names ...string) bool {
		return *exp == "all" || slices.Contains(names, *exp)
	}
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "ohabench: %s: %v\n", name, err)
		os.Exit(1)
	}
	// Table 1 is derived from Figure 5's rows and Table 2 from Figure
	// 6's: one measurement per workload.
	if wants("fig5", "tab1") {
		rows, err := harness.Fig5(opts)
		if err != nil {
			fail("fig5", err)
		}
		if wants("fig5") {
			harness.PrintFig5(os.Stdout, rows)
			fmt.Println()
		}
		if wants("tab1") {
			harness.PrintTab1(os.Stdout, harness.Tab1(rows))
			fmt.Println()
		}
	}
	if wants("fig6", "tab2") {
		rows, err := harness.Fig6(opts)
		if err != nil {
			fail("fig6", err)
		}
		if wants("fig6") {
			harness.PrintFig6(os.Stdout, rows)
			fmt.Println()
		}
		if wants("tab2") {
			harness.PrintTab2(os.Stdout, harness.Tab2(rows))
			fmt.Println()
		}
	}
	// fig7 and fig8 share one sweep.
	if wants("fig7", "fig8") {
		rows, err := harness.Sweep(opts)
		if err != nil {
			fail("sweep", err)
		}
		if wants("fig7") {
			harness.PrintFig7(os.Stdout, rows)
			fmt.Println()
		}
		if wants("fig8") {
			harness.PrintFig8(os.Stdout, rows)
			fmt.Println()
		}
	}
	if wants("fig9") {
		rows, err := harness.Fig9(opts)
		if err != nil {
			fail("fig9", err)
		}
		harness.PrintFig9(os.Stdout, rows)
		fmt.Println()
	}
	if wants("fig10") {
		rows, err := harness.Fig10(opts)
		if err != nil {
			fail("fig10", err)
		}
		harness.PrintFig10(os.Stdout, rows)
		fmt.Println()
	}
	if wants("fig11") {
		rows, err := harness.Fig11(opts)
		if err != nil {
			fail("fig11", err)
		}
		harness.PrintFig11(os.Stdout, rows)
		fmt.Println()
	}
}
