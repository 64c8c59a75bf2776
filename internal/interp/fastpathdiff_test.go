// Differential tests for the compiled engine's inline analysis fast
// paths: for every fast-path client (FastTrack's epoch compare, the
// slicer's Exec skip classes, profiling's non-null zero test), a run
// on a fast-path-enabled image must be bit-identical — reports,
// outputs, Stats step counts, and client verdicts — to the same run on
// a DisableFastPath image, which in turn must record zero fast-path
// traffic. The tree-vs-compiled matrix in enginediff_test.go covers
// fastpath-on against the interface-call ground truth; this file
// closes the triangle by pinning on against off directly.
package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"oha/internal/dynslice"
	"oha/internal/fasttrack"
	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/profile"
	"oha/internal/progen"
	"oha/internal/sched"
)

// fastpathCompile builds prog's image with the analysis fast paths
// toggled explicitly (the -ic/-fusion flags still apply, so the CI
// ablation axes compose).
func fastpathCompile(prog *ir.Program, m interp.Masks, off bool) *interp.Code {
	return interp.CompileWith(prog, m, interp.CompileOptions{
		DisableIC:       *icFlag == "off",
		DisableFusion:   *fusionFlag == "off",
		DisableFastPath: off,
	})
}

// fpOutcome is everything one client run observes: any error, the
// program output, the exact Stats, and a client-specific verdict
// string (race set, slice, or invariant DB).
type fpOutcome struct {
	errStr  string
	output  string
	stats   interp.Stats
	verdict string
}

// runFastPathClient executes prog once under the compiled engine with
// the given client tracer attached and the fast paths on or off.
func runFastPathClient(prog *ir.Program, seed uint64, inputs []int64, off bool, client string) (fpOutcome, interp.ICStats) {
	cfg := interp.Config{Prog: prog, Inputs: inputs, MaxSteps: diffMaxSteps}
	var verdict func() string
	switch client {
	case "fasttrack":
		det := fasttrack.New()
		cfg.Tracer = det
		cfg.Masks.Block = make([]bool, len(prog.Blocks))
		cfg.Choose = sched.NewSeeded(seed)
		cfg.Quantum = 5
		verdict = func() string {
			return fmt.Sprint(det.RaceKeys(), det.RacyAddrs(), det.Checks)
		}
	case "slice":
		tr := dynslice.New(prog, nil)
		cfg.Tracer = tr
		cfg.Masks.ExecAll = true
		cfg.Masks.Block = make([]bool, len(prog.Blocks))
		cfg.Choose = sched.NewSeeded(seed*3 + 1)
		cfg.Quantum = 2
		verdict = func() string {
			var crit *ir.Instr
			for _, in := range prog.Instrs {
				if in.Op == ir.OpPrint {
					crit = in
				}
			}
			if crit == nil {
				return fmt.Sprint(tr.NodeCount())
			}
			s := tr.Slice(crit)
			if s == nil {
				return fmt.Sprintf("%d <nil>", tr.NodeCount())
			}
			return fmt.Sprintf("%d %v %d", tr.NodeCount(), s.Instrs.Slice(), s.DynNodes)
		}
	case "profile":
		col := profile.NewCollector(prog)
		cfg.Tracer = col
		cfg.Choose = sched.NewSeeded(seed)
		cfg.Quantum = 3
		verdict = func() string {
			var b strings.Builder
			col.Summarize().WriteTo(&b) //nolint:errcheck // strings.Builder never errors
			return b.String()
		}
	default:
		panic("unknown fast-path client " + client)
	}
	cfg.Code = fastpathCompile(prog, cfg.Masks, off)
	res, err := interp.Run(cfg)
	var o fpOutcome
	var ic interp.ICStats
	if err != nil {
		o.errStr = err.Error()
	}
	if res != nil {
		o.output = fmt.Sprint(res.Output)
		o.stats = res.Stats
		ic = res.IC
	}
	o.verdict = verdict()
	return o, ic
}

var fastPathClients = []string{"fasttrack", "slice", "profile"}

// TestEngineFastPathOnOff pins fastpath-on against fastpath-off over
// generated program families for every fast-path client, and checks
// the fast path actually engaged somewhere in the suite (a vacuous
// equivalence would prove nothing).
func TestEngineFastPathOnOff(t *testing.T) {
	var onHits, onSlow uint64
	check := func(t *testing.T, prog *ir.Program, seed uint64, inputs []int64, client string) {
		t.Helper()
		on, onIC := runFastPathClient(prog, seed, inputs, false, client)
		off, offIC := runFastPathClient(prog, seed, inputs, true, client)
		if on != off {
			t.Fatalf("fastpath on/off diverged:\n on:  %+v\n off: %+v", on, off)
		}
		if offIC.FastPath != (interp.FastPathStats{}) {
			t.Fatalf("DisableFastPath image recorded fast-path traffic %+v", offIC.FastPath)
		}
		onHits += onIC.FastPath.Hits
		onSlow += onIC.FastPath.Slow
	}

	for seed := uint64(1); seed <= 20; seed++ {
		cfg := progen.DefaultConfig()
		if seed%3 == 0 {
			cfg = progen.Config{Funcs: 6, Workers: 3, MaxDepth: 4, MaxStmts: 6}
		}
		prog, err := lang.Compile(progen.Generate(seed, cfg))
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		for _, c := range fastPathClients {
			c := c
			t.Run(fmt.Sprintf("seed%d/%s", seed, c), func(t *testing.T) {
				check(t, prog, seed, nil, c)
			})
		}
	}
	dcfg := progen.DispatchConfig{Funcs: 5, Workers: 2, Sites: 2, Iters: 12}
	for seed := uint64(1); seed <= 6; seed++ {
		prog, err := lang.Compile(progen.GenerateDispatch(seed, dcfg))
		if err != nil {
			t.Fatalf("dispatch seed %d: compile: %v", seed, err)
		}
		for _, sel := range []int64{0, 7} {
			for _, c := range fastPathClients {
				c, sel := c, sel
				t.Run(fmt.Sprintf("dispatch%d/sel%d/%s", seed, sel, c), func(t *testing.T) {
					check(t, prog, seed, []int64{sel, 9, 4}, c)
				})
			}
		}
	}
	nrcfg := progen.DefaultNullableConfig()
	for seed := uint64(1); seed <= 6; seed++ {
		prog, err := lang.Compile(progen.GenerateNullable(seed, nrcfg))
		if err != nil {
			t.Fatalf("nullable seed %d: compile: %v", seed, err)
		}
		for _, c := range fastPathClients {
			c := c
			t.Run(fmt.Sprintf("nullable%d/%s", seed, c), func(t *testing.T) {
				check(t, prog, seed, []int64{950, 980, 990, 6, 2}, c)
			})
		}
	}

	if onHits == 0 {
		t.Fatalf("fast path never hit across the whole suite (slow=%d) — the on/off equivalence is vacuous", onSlow)
	}
	t.Logf("fast path engaged: %d hits, %d slow-path deliveries across suite", onHits, onSlow)
}
