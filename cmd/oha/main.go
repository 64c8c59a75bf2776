// Command oha runs the optimistic-hybrid-analysis pipeline on a
// MiniLang program: profile likely invariants, then race-detect,
// null-check or slice executions speculatively.
//
// Usage:
//
//	oha profile file.ml -runs 32 [-in 1,2,3] [-o invariants.txt]
//	    Profile executions (seeds 1..runs over the given inputs) and
//	    write the merged likely-invariant database.
//
//	oha race file.ml -inv invariants.txt [-in 1,2,3] [-seed 7] [-baseline] [-adapt]
//	    Run OptFT on one execution (or the FastTrack baseline) and
//	    print the race report.
//
//	oha slice file.ml -inv invariants.txt [-in 1,2,3] [-seed 7] [-criterion N] [-baseline] [-adapt]
//	    Run OptSlice (or the full-Giri baseline) from the N-th print
//	    (default: last) and print the sliced source lines.
//
//	oha nullcheck file.ml -inv invariants.txt [-in 1,2,3] [-seed 7] [-baseline] [-adapt]
//	    Run OptNull on one execution (or the check-everything baseline)
//	    and print the null report: dereference sites that observed nil,
//	    plus how many checks the predicated static analysis discharged.
//
//	oha compile file.ml [-inv invariants.txt] [-ic off] [-fusion off] [-o prog.ohc]
//	    Ahead-of-time compile to a serialized .ohc image (source +
//	    bytecode). With -inv, likely callee sets seed the speculative
//	    inline caches baked into the image.
//
//	oha dump prog.ohc|file.ml
//	    Disassemble the compiled image: per-PC opcodes with baked
//	    event-flag bits, inline-cache seeds, and fused superinstruction
//	    bodies.
//
//	oha stepdebug prog.ohc|file.ml [-in 1,2,3] [-seed 7]
//	    Single-step the deterministic compiled engine interactively:
//	    line breakpoints, registers, globals, threads (try `help`).
//
// With -adapt, the run goes through an adaptive manager: the facts a
// mis-speculated run's rollback refuted are refined out of the
// database, which is published as the next generation (printing a
// summary of the generations) — the same closed loop `ohad` exposes
// via /speculation.
// -engine tree|compiled selects the execution engine (default
// compiled); results are identical under both. -ic=off disables the
// compiled engine's speculative inline caches, -fusion=off its
// superinstruction fusion, and -fastpath=off its devirtualized
// analysis fast paths — results are identical either way, only
// dispatch speed changes.
//
// Flags may be given before or after the program file. With
// -cache-dir DIR, static-analysis artifacts persist across
// invocations, so repeated analyses of an unchanged program skip the
// static solves (the same cache a long-running `ohad` keeps warm).
//
// With -remote URL, the subcommand runs against an ohad daemon or any
// node of an ohad fleet instead of in-process: the source is uploaded
// (deduped by digest), the job submitted and polled, and 429 sheds
// retried with the server's Retry-After hint plus jitter. In remote
// mode -inv names a server-side invariant-DB id rather than a local
// file; `profile -o FILE` additionally downloads the stored DB.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"oha"
	"oha/internal/adapt"
	"oha/internal/core"
	"oha/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet("oha", flag.ExitOnError)
	inputs := fs.String("in", "", "comma-separated input words")
	seed := fs.Uint64("seed", 1, "schedule seed for the analyzed execution")
	runs := fs.Int("runs", 32, "profile: max profiling executions")
	out := fs.String("o", "", "profile/compile: output file (default: stdout / FILE.ohc)")
	inv := fs.String("inv", "", "invariants file from `oha profile`")
	baseline := fs.Bool("baseline", false, "race/nullcheck/slice: run the unoptimized sound baseline (FastTrack / check-everything / full Giri) instead")
	criterion := fs.Int("criterion", -1, "slice: print-statement index (default: last)")
	budget := fs.Int("budget", 4096, "slice: context-sensitive analysis budget")
	cacheDir := fs.String("cache-dir", "", "persist static-analysis artifacts under this directory (default: in-memory only)")
	adaptive := fs.Bool("adapt", false, "race/nullcheck/slice: on mis-speculation, publish the database without the refuted invariants as the next generation")
	engine := fs.String("engine", "compiled", "execution engine: compiled|tree")
	staticWorkers := fs.Int("static-workers", 0, "parallel static-solver workers (0: GOMAXPROCS, 1: sequential)")
	icFlag := fs.String("ic", "on", "compiled engine: speculative inline caches at indirect call sites (on|off)")
	fusionFlag := fs.String("fusion", "on", "compiled engine: superinstruction fusion (on|off)")
	fastpathFlag := fs.String("fastpath", "on", "compiled engine: inline analysis fast paths (on|off)")
	remote := fs.String("remote", "", "run against an ohad daemon or fleet node at this base URL; -inv then names a server-side invariant-DB id")

	// Flags may appear before or after the one positional file:
	// `oha race -inv x.txt prog.ml` and `oha race prog.ml -inv x.txt`
	// are both fine. Parse up to the first positional, take it as the
	// file, then parse the rest.
	fs.Parse(os.Args[2:])
	if fs.NArg() < 1 {
		usage()
	}
	file := fs.Arg(0)
	fs.Parse(fs.Args()[1:])
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "oha: unexpected argument %q\n", fs.Arg(0))
		usage()
	}

	src, err := os.ReadFile(file)
	check(err)
	in := parseInputs(*inputs)

	// Toolchain subcommands run before anything tries to parse the file
	// as MiniLang source: `oha dump prog.ohc` takes a binary artifact.
	if runTool(cmd, file, src, toolOpts{
		out:      *out,
		inv:      *inv,
		noIC:     parseToggle("ic", *icFlag),
		noFusion: parseToggle("fusion", *fusionFlag),
		noFast:   parseToggle("fastpath", *fastpathFlag),
		inputs:   in,
		seed:     *seed,
	}) {
		return
	}

	if *remote != "" {
		check(runRemote(*remote, cmd, remoteOpts{
			inputs:    in,
			seed:      *seed,
			runs:      *runs,
			out:       *out,
			inv:       *inv,
			baseline:  *baseline,
			adaptive:  *adaptive,
			criterion: *criterion,
			budget:    *budget,
			src:       string(src),
		}))
		return
	}

	prog, err := oha.Compile(string(src))
	check(err)
	var eng oha.EngineKind
	switch *engine {
	case "compiled":
		eng = oha.EngineCompiled
	case "tree":
		eng = oha.EngineTree
	default:
		check(fmt.Errorf("unknown -engine %q (want compiled or tree)", *engine))
	}
	ropts := oha.RunOptions{Engine: eng}
	static := oha.StaticConfig{
		Cache:      oha.NewArtifactCache(*cacheDir),
		Workers:    *staticWorkers,
		NoIC:       parseToggle("ic", *icFlag),
		NoFusion:   parseToggle("fusion", *fusionFlag),
		NoFastPath: parseToggle("fastpath", *fastpathFlag),
	}

	if cmd == "profile" {
		pr, err := oha.ProfileCached(prog, func(run int) oha.Execution {
			return oha.Execution{Inputs: in, Seed: uint64(run + 1)}
		}, *runs, static.Cache)
		check(err)
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			check(err)
			defer f.Close()
			w = f
		}
		check(oha.SaveInvariants(w, pr.DB))
		printProfile(server.ProfileJobResult{Runs: pr.Runs, Counts: pr.DB.Count()})
		return
	}

	if !slices.Contains(core.ClientNames, cmd) {
		usage()
	}
	e := oha.Execution{Inputs: in, Seed: *seed}
	mode := adapt.Mode{Baseline: *baseline}
	var m *oha.SpeculationManager
	if !*baseline {
		db := loadInv(*inv)
		if *adaptive {
			m = oha.NewSpeculationManager(prog, db, oha.SpeculationOptions{Static: static})
			mode.Manager = m
		} else {
			mode.DB, mode.Static = db, static
		}
	}
	switch cmd {
	case "race":
		a, err := adapt.Analyze(prog, core.Race(), mode, e, ropts)
		check(err)
		printRace(server.RaceResult(a))

	case "nullcheck":
		a, err := adapt.Analyze(prog, core.Null(), mode, e, ropts)
		check(err)
		if !*baseline {
			printDischarge(a.Detector.ElidedChecks(), a.Detector.Pred.DerefSites)
		}
		printNull(prog, server.NullResult(a))

	case "slice":
		var want *int // nil: the last print
		if *criterion >= 0 {
			want = criterion
		}
		idx, crit, err := core.SliceCriterion(prog, want)
		check(err)
		a, err := adapt.Analyze(prog, core.Slice(crit, *budget), mode, e, ropts)
		check(err)
		printSlice(server.SliceResult(prog, idx, crit, a), string(src))
	}
	if m != nil {
		printSpeculation(m)
	}
}

// printSpeculation prints the adaptive summary after the report.
func printSpeculation(m *oha.SpeculationManager) {
	st := m.Status()
	fmt.Printf("adaptive: generation %d after %d run(s), %d rollback(s)\n", st.Generation, st.Runs, st.Rollbacks)
	for _, g := range st.History[1:] {
		for _, c := range g.Causes {
			fmt.Printf("  generation %d refined: %s\n", g.Generation, c.String())
		}
	}
}

func loadInv(path string) *oha.InvariantDB {
	if path == "" {
		check(fmt.Errorf("missing -inv invariants file (run `oha profile` first)"))
	}
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	db, err := oha.LoadInvariants(f)
	check(err)
	return db
}

// parseToggle maps an on|off flag to its "disabled" form.
func parseToggle(name, v string) bool {
	switch v {
	case "on":
		return false
	case "off":
		return true
	}
	check(fmt.Errorf("bad -%s %q (want on or off)", name, v))
	return false
}

func parseInputs(s string) []int64 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		check(err)
		out[i] = v
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: oha profile|race|slice|nullcheck|compile|dump|stepdebug file [flags]")
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "oha:", err)
		os.Exit(1)
	}
}
