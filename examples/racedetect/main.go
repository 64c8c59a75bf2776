// Race-detection example: speculation, mis-speculation, and rollback.
//
//	go run ./examples/racedetect
//
// The program under analysis has an input-guarded error path that both
// (a) is never exercised during profiling (so the predicated static
// analysis prunes it as likely-unreachable code) and (b) contains a
// real data race. The example shows all three behaviours of OptFT:
//
//  1. On common inputs, speculation succeeds: same result as
//     FastTrack with far less instrumentation.
//  2. On an input that takes the error path, the likely-unreachable-
//     code check fires, the run rolls back, and the traditional hybrid
//     analysis finds the race — soundness is preserved.
//  3. A custom-synchronization hazard (Figure 4 of the paper) is
//     caught at run time: a race reported while lock instrumentation
//     is elided rolls the run back to a generation with every lock
//     instrumented, so lock elision never produces false races.
package main

import (
	"fmt"
	"log"

	"oha"
)

const src = `
	global jobs = 0;
	global errlog = 0;
	global m = 0;

	func process(items, poison) {
		var i = 0;
		while (i < items) {
			lock(&m);
			jobs = jobs + 1;
			unlock(&m);
			if (poison > 9000) {
				// Error path: logs WITHOUT holding the lock — a real
				// data race, hiding behind an unlikely input.
				errlog = errlog + 1;
			}
			i = i + 1;
		}
	}

	func main() {
		var t1 = spawn process(input(0), input(1));
		var t2 = spawn process(input(0), input(1));
		join(t1);
		join(t2);
		print(jobs);
		print(errlog);
	}
`

func analyze(det *oha.RaceDetector, prog *oha.Program, e oha.Execution, label string) {
	opt, err := det.Run(e, oha.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ft, err := oha.RunFastTrack(prog, e, oha.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- %s (inputs %v)\n", label, e.Inputs)
	if opt.RolledBack {
		fmt.Printf("    mis-speculation: %s\n    rolled back; the %s re-execution produced the result\n", opt.Violation, opt.RolledBackTo)
	} else {
		fmt.Println("    speculation succeeded")
	}
	fmt.Printf("    OptFT found %d race(s); FastTrack found %d race(s)\n", len(opt.Races), len(ft.Races))
	for _, r := range opt.Details {
		fmt.Printf("      %s\n", r)
	}
	if len(opt.RacyAddrs) != len(ft.RacyAddrs) {
		log.Fatal("SOUNDNESS BUG: reports differ") // never happens
	}
	fmt.Printf("    instrumented ops: OptFT %d vs FastTrack %d\n\n",
		opt.Stats.InstrumentedOps(), ft.Stats.InstrumentedOps())
}

func main() {
	prog := oha.MustCompile(src)

	// Profile with ordinary inputs: the poison path never runs.
	// Profiling proposes the elidable locks; the run-time
	// elided-lock-race check is Figure 4's protection.
	profile, err := oha.Profile(prog, func(run int) oha.Execution {
		return oha.Execution{Inputs: []int64{20, int64(run % 50)}, Seed: uint64(run + 1)}
	}, 32)
	if err != nil {
		log.Fatal(err)
	}
	det, err := oha.NewRaceDetector(prog, profile.DB)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Common input: speculation succeeds, no races.
	analyze(det, prog, oha.Execution{Inputs: []int64{20, 5}, Seed: 42}, "common input")

	// 2. Poisoned input: LUC violation -> rollback -> race found.
	analyze(det, prog, oha.Execution{Inputs: []int64{20, 9999}, Seed: 42}, "poisoned input")
}
