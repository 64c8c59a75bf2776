// Quickstart: the whole optimistic-hybrid-analysis pipeline on a small
// multithreaded MiniLang program in ~40 lines of API use.
//
//	go run ./examples/quickstart
//
// It profiles likely invariants, builds OptFT (the optimistic
// FastTrack race detector), and analyzes an execution — showing that
// the result matches unoptimized FastTrack while doing a fraction of
// the instrumentation work.
package main

import (
	"fmt"
	"log"

	"oha"
)

const src = `
	global counter = 0;
	global m = 0;

	func worker(n) {
		var i = 0;
		while (i < n) {
			lock(&m);
			counter = counter + 1;
			unlock(&m);
			i = i + 1;
		}
	}

	func main() {
		var t1 = spawn worker(input(0));
		var t2 = spawn worker(input(0));
		join(t1);
		join(t2);
		print(counter);
	}
`

func main() {
	prog := oha.MustCompile(src)

	// Phase 1: profile likely invariants (and propose elidable locks).
	profile, err := oha.Profile(prog, func(run int) oha.Execution {
		return oha.Execution{Inputs: []int64{25}, Seed: uint64(run + 1)}
	}, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %d executions: %+v\n\n", profile.Runs, profile.DB.Count())

	// Phase 2: predicated static analysis (the sound fallback is built
	// only if a run needs it).
	det, err := oha.NewRaceDetector(prog, profile.DB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicated static analysis: %d memory accesses elidable\n\n", det.ElidedAccesses())

	// Phase 3: analyze an execution speculatively.
	exec := oha.Execution{Inputs: []int64{25}, Seed: 99}
	optimistic, err := det.Run(exec, oha.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := oha.RunFastTrack(prog, exec, oha.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("FastTrack: %d races, %d instrumented operations\n",
		len(baseline.Races), baseline.Stats.InstrumentedOps())
	fmt.Printf("OptFT:     %d races, %d instrumented operations (rolled back: %v)\n",
		len(optimistic.Races), optimistic.Stats.InstrumentedOps(), optimistic.RolledBack)
	fmt.Printf("\nsame results, %.0fx less dynamic-analysis work\n",
		float64(baseline.Stats.InstrumentedOps())/float64(optimistic.Stats.InstrumentedOps()))
}
