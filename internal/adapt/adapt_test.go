package adapt

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/inc"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/metrics"
	"oha/internal/progen"
)

// pathProg has an input-guarded racy path: profiling with small inputs
// marks the k>100 branch likely-unreachable, so analyzing a large
// input mis-speculates — the canonical refinement trigger.
const pathProg = `
	global g = 0;
	global h = 0;
	func w(k) {
		if (k > 100) {
			g = g + 1;
		}
		h = 7;
	}
	func main() {
		var t1 = spawn w(input(0));
		var t2 = spawn w(input(0));
		join(t1);
		join(t2);
		print(g + h);
	}
`

const singletonProg = `
	global g = 0;
	global m = 0;
	func w() {
		lock(&m);
		g = g + 1;
		unlock(&m);
	}
	func main() {
		var n = input(0);
		var i = 0;
		var t = 0;
		while (i < n) {
			t = spawn w();
			join(t);
			i = i + 1;
		}
		print(g);
	}
`

func profileDB(t *testing.T, prog *ir.Program, inputs []int64, runs int) *core.ProfileResult {
	t.Helper()
	pr, err := core.Profile(prog, func(run int) core.Execution {
		return core.Execution{Inputs: inputs, Seed: uint64(run + 1)}
	}, runs)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func lastPrint(prog *ir.Program) *ir.Instr {
	var criterion *ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpPrint {
			criterion = in
		}
	}
	return criterion
}

// TestRefineAndRetryRace: the full loop on the LUC trigger — gen 1
// rolls back, gen 2 runs the identical execution clean, and every
// attempt matches FastTrack.
func TestRefineAndRetryRace(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	cache := artifacts.New("")
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: cache}})

	e := core.Execution{Inputs: []int64{500}, Seed: 3}
	ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	attempts, err := Run(m, core.Race(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 2 {
		t.Fatalf("attempts = %d, want 2 (rollback then clean retry)", len(attempts))
	}
	first, second := attempts[0], attempts[1]
	if first.Generation != 1 || !first.Report.RolledBack {
		t.Fatalf("first attempt: gen=%d rolledback=%v", first.Generation, first.Report.RolledBack)
	}
	if first.Report.Violation.Kind != core.ViolationUnreachableBlock {
		t.Fatalf("violation kind = %q", first.Report.Violation.Kind)
	}
	if second.Generation != 2 || second.Report.RolledBack {
		t.Fatalf("second attempt: gen=%d rolledback=%v violation=%s",
			second.Generation, second.Report.RolledBack, second.Report.Violation)
	}
	for i, a := range attempts {
		if !core.SameRaces(ft, a.Report) {
			t.Fatalf("attempt %d diverged from FastTrack", i)
		}
	}
	if got := m.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}

	// The paper's promise: the same execution never costs a second
	// rollback.
	again, err := Run(m, core.Race(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0].Report.RolledBack {
		t.Fatalf("re-run after refinement still rolled back (%d attempts)", len(again))
	}
}

// refutedCalleeRaceSrc races on g only through a table call outside
// its profiled callee set (input 1 selects h; profiling selects f).
const refutedCalleeRaceSrc = `
	global g = 0;
	global ftab[2];
	func f(n) { return n + 1; }
	func h(n) {
		g = g + n;
		return g;
	}
	func w(n) {
		var fn = ftab[input(0)];
		var r = fn(n);
		return r;
	}
	func main() {
		ftab[0] = f;
		ftab[1] = h;
		var x = h(1);
		var t1 = spawn w(2);
		var t2 = spawn w(3);
		join(t1);
		join(t2);
		print(g + x);
	}
`

// TestRefineAndRetryCalleeSetRace: OptFT's callee-set violation refines
// through WidenCallees, the incremental re-analysis re-solves race
// points-to, and the loop converges to clean speculative runs that
// report FastTrack's race.
func TestRefineAndRetryCalleeSetRace(t *testing.T) {
	prog := lang.MustCompile(refutedCalleeRaceSrc)
	pr := profileDB(t, prog, []int64{0}, 10)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New(""), Incremental: true}})
	base, _, err := Current(m, core.Race())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		e := core.Execution{Inputs: []int64{1}, Seed: seed}
		ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		attempts, err := Run(m, core.Race(), e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if seed == 1 && (len(attempts) != 2 || attempts[0].Report.Violation.Kind != core.ViolationCalleeSet) {
			t.Fatalf("first execution: %d attempts, first violation %v; want a callee-set refinement then a retry", len(attempts), attempts[0].Report.Violation)
		}
		last := attempts[len(attempts)-1]
		if seed > 1 && len(attempts) != 1 || last.Report.RolledBack || last.Generation != 2 {
			t.Fatalf("seed %d: %d attempts, last under generation %d rolled back %v; want one clean generation-2 run", seed, len(attempts), last.Generation, last.Report.RolledBack)
		}
		for i, a := range attempts {
			if !core.SameRaces(ft, a.Report) || len(a.Report.RacyAddrs) == 0 {
				t.Fatalf("seed %d attempt %d: races %v, FastTrack %v", seed, i, a.Report.RacyAddrs, ft.RacyAddrs)
			}
		}
	}
	// Generation 2 deploys the detector the first rollback's chain
	// built for the refined database, not a second one.
	det, _, err := Current(m, core.Race())
	if err != nil {
		t.Fatal(err)
	}
	if refined, ok := core.Memoized(base, m.DB()); !ok || refined != det {
		t.Fatalf("generation 2's detector is not the rollback chain's refined generation (memoized %v)", ok)
	}
}

// TestRefineAndRetrySingleton covers the singleton-spawn weakening.
func TestRefineAndRetrySingleton(t *testing.T) {
	prog := lang.MustCompile(singletonProg)
	pr := profileDB(t, prog, []int64{1}, 20)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})
	e := core.Execution{Inputs: []int64{3}, Seed: 2}
	attempts, err := Run(m, core.Race(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := attempts[len(attempts)-1]
	if last.Report.RolledBack {
		t.Fatalf("did not converge: last attempt (gen %d) rolled back with %s",
			last.Generation, last.Report.Violation)
	}
	if attempts[0].Report.Violation.Kind != core.ViolationSingletonSpawn {
		t.Fatalf("violation kind = %q", attempts[0].Report.Violation.Kind)
	}
	if m.DB().SingletonSpawns.Has(attempts[0].Report.Violation.Site) {
		t.Fatal("violated singleton fact still in refined DB")
	}
}

// TestRefineAndRetrySlice: the slicer side of the loop against hybrid
// Giri per generation.
func TestRefineAndRetrySlice(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})
	criterion := lastPrint(prog)
	e := core.Execution{Inputs: []int64{500}, Seed: 3}
	full, err := core.RunFullGiri(prog, criterion, e, core.RunOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	attempts, err := Run(m, core.Slice(criterion, 512), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) < 2 {
		t.Fatalf("attempts = %d, want >= 2", len(attempts))
	}
	last := attempts[len(attempts)-1]
	if last.Report.RolledBack {
		t.Fatalf("last attempt rolled back with %s", last.Report.Violation)
	}
	for i, a := range attempts {
		if !full.Slice.Equal(a.Report.Slice) {
			t.Fatalf("attempt %d slice diverged from full Giri", i)
		}
	}
}

// TestReconcilePrebuildsBuiltClients: Reconcile eagerly rebuilds only
// the detectors the outgoing generation had built, timing each under
// "masks" with its own client's name — a slice-only manager builds no
// race detector — and records the first one's configuration digest.
func TestReconcilePrebuildsBuiltClients(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	checkPrebuilds(t, prog, pr.DB, core.Race())
	checkPrebuilds(t, prog, pr.DB, core.Slice(lastPrint(prog), 512))
}

// checkPrebuilds refines a fresh manager through a alone and checks
// the masks phases it recorded and its last generation's digest.
func checkPrebuilds[D core.Detector[R], R core.Report](t *testing.T, prog *ir.Program, db *invariants.DB, a core.Analysis[D, R]) {
	t.Helper()
	name := a.Name
	reg := metrics.NewRegistry()
	cfg := core.StaticConfig{Cache: artifacts.New("")}
	m := New(prog, db, Options{Static: cfg, Inc: inc.NewMetrics(reg)})
	attempts, err := Run(m, a, core.Execution{Inputs: []int64{500}, Seed: 3}, core.RunOptions{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(attempts) < 2 {
		t.Fatalf("%s: attempts = %d, want a refinement", name, len(attempts))
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, client := range []string{"race", "slice"} {
		series := `oha_static_phase_seconds_count{phase="masks",client="` + client + `"}`
		if got := strings.Contains(sb.String(), series); got != (client == name) {
			t.Errorf("%s-only manager: %s recorded = %v", name, series, got)
		}
	}
	det, err := a.Build(prog, m.DB(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist := m.Status().History
	if got, want := hist[len(hist)-1].MaskDigest, det.CodeDigest(); got != want {
		t.Errorf("%s-only manager: last mask digest %.12s, want its own detector's %.12s", name, got, want)
	}
}

// TestStatusLedgerAndMetrics checks the ledger counters, history
// digests, and metrics registration after one refinement.
func TestStatusLedgerAndMetrics(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	reg := metrics.NewRegistry()
	met := NewMetrics(reg)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}, Metrics: met})

	if _, err := Run(m, core.Race(), core.Execution{Inputs: []int64{500}, Seed: 3}, core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if st.Generation != 2 || st.Runs != 2 || st.Rollbacks != 1 {
		t.Fatalf("status = gen %d, runs %d, rollbacks %d", st.Generation, st.Runs, st.Rollbacks)
	}
	if st.SuccessRate != 0.5 {
		t.Fatalf("success rate = %v, want 0.5", st.SuccessRate)
	}
	if st.PostRefineRuns != 1 || st.PostRefineRollbacks != 0 {
		t.Fatalf("post-refine runs/rollbacks = %d/%d, want 1/0", st.PostRefineRuns, st.PostRefineRollbacks)
	}
	if st.ViolationsByKind[core.ViolationUnreachableBlock] != 1 {
		t.Fatalf("violations by kind = %v", st.ViolationsByKind)
	}
	if st.PendingReconcile {
		t.Fatal("pending reconcile after the loop finished")
	}
	if len(st.History) != 2 {
		t.Fatalf("history length = %d, want 2", len(st.History))
	}
	for i, rec := range st.History {
		if rec.Generation != i+1 || rec.DBDigest == "" || rec.MaskDigest == "" {
			t.Fatalf("history[%d] incomplete: %+v", i, rec)
		}
	}
	if st.History[0].DBDigest == st.History[1].DBDigest {
		t.Fatal("refinement did not change the DB digest")
	}
	if len(st.History[1].Causes) != 1 {
		t.Fatalf("gen-2 causes = %v", st.History[1].Causes)
	}
	if met.Refinements.Value() != 1 || met.Violations.With("race", string(core.ViolationUnreachableBlock)).Value() != 1 {
		t.Fatal("metrics not recorded")
	}
	if met.Runs.With("race").Value() != 2 || met.Rollbacks.With("race").Value() != 1 {
		t.Fatal("client-labeled run metrics not recorded")
	}
	if got := st.Clients["race"]; got.Runs != 2 || got.Rollbacks != 1 {
		t.Fatalf("client stats = %+v, want runs 2 rollbacks 1", got)
	}
	if met.ResolveSeconds.Count() != 1 {
		t.Fatalf("resolve latency observations = %d, want 1", met.ResolveSeconds.Count())
	}
}

// TestRunObservesFinalOutcome: Run feeds the ledger exactly once per
// completed attempt, with that attempt's final report — rolled back,
// charged with the aborted speculative run's dispatch counts — and a
// canceled run feeds it nothing. MaxGenerations 1 stops the loop after
// its first attempt, so the ledger holds one observation.
func TestRunObservesFinalOutcome(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	e := core.Execution{Inputs: []int64{500}, Seed: 3}
	checkObserved(t, prog, pr.DB, core.Race(), e)
	checkObserved(t, prog, pr.DB, core.Slice(lastPrint(prog), 512), e)
	checkObserved(t, prog, pr.DB, core.Null(), e)
}

// checkObserved runs a on the violating execution e under two fresh
// managers, once to completion and once canceled, and checks what each
// ledger recorded.
func checkObserved[D core.Detector[R], R core.Report](t *testing.T, prog *ir.Program, db *invariants.DB, a core.Analysis[D, R], e core.Execution) {
	t.Helper()
	m := New(prog, db, Options{Policy: Policy{MaxGenerations: 1}})
	attempts, err := Run(m, a, e, core.RunOptions{})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	if len(attempts) != 1 {
		t.Fatalf("%s: %d attempts, want 1 at the generation cap", a.Name, len(attempts))
	}
	out := attempts[0].Report.Base()
	if !out.RolledBack || out.Violation.Kind != core.ViolationUnreachableBlock {
		t.Fatalf("%s: rolledBack=%v violation=%v, want an unreachable-block rollback", a.Name, out.RolledBack, out.Violation)
	}
	st := m.Status()
	if st.Runs != 1 || st.Rollbacks != 1 || st.IC != out.IC ||
		!reflect.DeepEqual(st.Clients, map[string]ClientStats{a.Name: {Runs: 1, Rollbacks: 1}}) ||
		!reflect.DeepEqual(st.ViolationsByKind, map[core.ViolationKind]uint64{core.ViolationUnreachableBlock: 1}) {
		t.Errorf("%s: status %+v does not describe the one rolled-back report %+v", a.Name, st, *out)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m = New(prog, db, Options{})
	if _, err := Run(m, a, e, core.RunOptions{Ctx: ctx}); !errors.Is(err, interp.ErrCanceled) {
		t.Fatalf("%s: canceled run: err = %v, want interp.ErrCanceled", a.Name, err)
	}
	if st := m.Status(); st.Runs != 0 || st.Rollbacks != 0 || st.ViolationsByKind != nil || st.Clients != nil {
		t.Errorf("%s: canceled run was observed: %+v", a.Name, st)
	}
}

// TestStaleViolationIsIdempotent: observing the same violation twice
// (as a run that started under the old generation would report) must
// not produce a second generation.
func TestStaleViolationIsIdempotent(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})
	e := core.Execution{Inputs: []int64{500}, Seed: 3}
	if _, err := Run(m, core.Race(), e, core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if m.Generation() != 2 {
		t.Fatalf("generation = %d", m.Generation())
	}
	// Replay the stale report by hand: an old-generation detector
	// finishing late.
	stale := &core.Outcome{RolledBack: true, Violation: core.Violation{
		Kind: core.ViolationUnreachableBlock, Site: m.Status().History[1].Causes[0].Site, Callee: -1}}
	m.Observe("race", stale)
	if m.Pending() {
		t.Fatal("stale violation left a pending reconcile")
	}
	if swapped, err := m.Reconcile(nil); err != nil || swapped {
		t.Fatalf("stale violation produced a generation (swapped=%v, err=%v)", swapped, err)
	}
	if m.Generation() != 2 {
		t.Fatalf("generation moved to %d on a stale violation", m.Generation())
	}
}

// TestPolicyThreshold: with Threshold 2 the first violation only
// counts; the second refines.
func TestPolicyThreshold(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}, Policy: Policy{Threshold: 2}})
	e := core.Execution{Inputs: []int64{500}, Seed: 3}

	attempts, err := Run(m, core.Race(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 1 || m.Generation() != 1 {
		t.Fatalf("first violation refined below threshold (attempts=%d gen=%d)", len(attempts), m.Generation())
	}
	attempts, err = Run(m, core.Race(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation() != 2 {
		t.Fatalf("second violation did not refine (gen=%d)", m.Generation())
	}
	if attempts[len(attempts)-1].Report.RolledBack {
		t.Fatal("post-threshold retry still rolled back")
	}
}

// randomInputs mirrors the core package's property-test input
// generator.
func randomInputs(seed uint64) [][]int64 {
	mix := func(k uint64) int64 {
		z := (seed*31 + k + 1) * 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return int64((z ^ (z >> 27)) % 100)
	}
	out := make([][]int64, 3)
	for i := range out {
		in := make([]int64, 8)
		for j := range in {
			in[j] = mix(uint64(i*8 + j))
		}
		out[i] = in
	}
	return out
}

// TestAdaptationSoundnessProperty is the acceptance property over
// generated programs: at EVERY generation the loop visits, OptFT's
// results equal FastTrack's and OptSlice's equal full Giri's, and the
// execution that triggered a refinement runs clean (RolledBack ==
// false) on the next generation.
func TestAdaptationSoundnessProperty(t *testing.T) {
	const programs = 12
	for seed := uint64(0); seed < programs; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs := randomInputs(seed)
		pr, err := core.Profile(prog, func(run int) core.Execution {
			return core.Execution{Inputs: inputs[0], Seed: uint64(run + 1)}
		}, 8)
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		cache := artifacts.New("")
		m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: cache}})
		criterion := lastPrint(prog)

		for _, in := range inputs {
			for _, s := range []uint64{11, 12} {
				e := core.Execution{Inputs: in, Seed: s}
				ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
				if err != nil {
					t.Fatalf("seed %d: fasttrack: %v", seed, err)
				}
				attempts, err := Run(m, core.Race(), e, core.RunOptions{})
				if err != nil {
					t.Fatalf("seed %d: adapt race: %v", seed, err)
				}
				for i, a := range attempts {
					if !core.SameRaces(ft, a.Report) {
						t.Fatalf("seed %d: attempt %d (gen %d) diverged from FastTrack\nprogram:\n%s",
							seed, i, a.Generation, src)
					}
					if i > 0 && attempts[i-1].Report.RolledBack &&
						attempts[i-1].Report.Violation.Kind.Refinable() && a.Report.RolledBack &&
						reflect.DeepEqual(a.Report.Violation, attempts[i-1].Report.Violation) {
						t.Fatalf("seed %d: generation %d repeated the refined violation %s\nprogram:\n%s",
							seed, a.Generation, a.Report.Violation, src)
					}
				}
				// The triggering execution runs clean on the final
				// generation unless the loop stopped on a non-refinable
				// cause.
				last := attempts[len(attempts)-1]
				if last.Report.RolledBack && last.Report.Violation.Kind.Refinable() {
					t.Fatalf("seed %d: loop ended rolled-back on refinable %s\nprogram:\n%s",
						seed, last.Report.Violation, src)
				}

				if criterion != nil {
					full, err := core.RunFullGiri(prog, criterion, e, core.RunOptions{}, 0)
					if err != nil {
						t.Fatalf("seed %d: giri: %v", seed, err)
					}
					sattempts, err := Run(m, core.Slice(criterion, 512), e, core.RunOptions{})
					if err != nil {
						t.Fatalf("seed %d: adapt slice: %v", seed, err)
					}
					for i, a := range sattempts {
						if !full.Slice.Equal(a.Report.Slice) {
							t.Fatalf("seed %d: slice attempt %d (gen %d) diverged from Giri\nprogram:\n%s",
								seed, i, a.Generation, src)
						}
					}
				}
			}
		}
	}
}

// TestGenerationSequenceDeterministic: the acceptance determinism
// criterion — the refinement-generation sequence (DB digests and mask
// digests) is bit-identical across independent managers, fresh caches,
// and profiling worker counts.
func TestGenerationSequenceDeterministic(t *testing.T) {
	const seed = uint64(7)
	src := progen.Generate(seed, progen.DefaultConfig())
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(seed)

	histories := make([][]GenerationRecord, 0, 3)
	for trial, workers := range []int{1, 4, 8} {
		pr, err := core.ProfileWith(prog, func(run int) core.Execution {
			return core.Execution{Inputs: inputs[0], Seed: uint64(run + 1)}
		}, core.ProfileOptions{MaxRuns: 8, Workers: workers})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})
		criterion := lastPrint(prog)
		for _, in := range inputs {
			for _, s := range []uint64{11, 12} {
				e := core.Execution{Inputs: in, Seed: s}
				if _, err := Run(m, core.Race(), e, core.RunOptions{}); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if _, err := Run(m, core.Null(), e, core.RunOptions{}); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if criterion != nil {
					if _, err := Run(m, core.Slice(criterion, 512), e, core.RunOptions{}); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
			}
		}
		histories = append(histories, m.Status().History)
	}
	for trial := 1; trial < len(histories); trial++ {
		a, b := histories[0], histories[trial]
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d generations vs %d", trial, len(b), len(a))
		}
		for i := range a {
			if a[i].DBDigest != b[i].DBDigest || a[i].MaskDigest != b[i].MaskDigest {
				t.Fatalf("trial %d: generation %d fingerprint diverged:\n%+v\n%+v",
					trial, a[i].Generation, a[i], b[i])
			}
		}
	}
}

// TestConcurrentRunsDuringHotSwap hammers one manager from many
// goroutines mixing clean and violating executions: in-flight runs
// must keep their snapshot while generations swap underneath, every
// final report must match FastTrack, and (under -race) the swap must
// be data-race-free.
func TestConcurrentRunsDuringHotSwap(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})

	execs := []core.Execution{
		{Inputs: []int64{5}, Seed: 1},
		{Inputs: []int64{500}, Seed: 3},
		{Inputs: []int64{7}, Seed: 2},
		{Inputs: []int64{900}, Seed: 5},
	}
	want := make([]*core.RaceReport, len(execs))
	for i, e := range execs {
		ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ft
	}

	const workers = 8
	errs := make(chan error, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for rep := 0; rep < 5; rep++ {
				i := (w + rep) % len(execs)
				attempts, err := Run(m, core.Race(), execs[i], core.RunOptions{})
				if err != nil {
					errs <- err
					return
				}
				for _, a := range attempts {
					if !core.SameRaces(want[i], a.Report) {
						errs <- errDiverged
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Converged: one more pass over every execution runs clean.
	for i, e := range execs {
		attempts, err := Run(m, core.Race(), e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(attempts) != 1 || attempts[0].Report.RolledBack {
			t.Fatalf("exec %d still rolls back after convergence", i)
		}
	}
}

var errDiverged = errors.New("adapted run diverged from FastTrack")

// TestWarmCacheIncrementalReanalysis: refining must re-solve only the
// predicated artifacts — the sound ones (keyed on the nil DB) are
// reused from the cache across generations.
func TestWarmCacheIncrementalReanalysis(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	cache := artifacts.New("")
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: cache}})
	if _, _, err := Current(m, core.Race()); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if _, err := Run(m, core.Race(), core.Execution{Inputs: []int64{500}, Seed: 3}, core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("no warm-cache reuse across the generation swap (hits %d -> %d)", before.Hits, after.Hits)
	}
	// The sound static pipeline must not have re-solved: misses grow
	// only by the predicated artifacts of the new DB digest (points-to,
	// MHP, static race, compiled images, refined-DB derivation).
	t.Logf("cache misses %d -> %d, hits %d -> %d", before.Misses, after.Misses, before.Hits, after.Hits)
	soundAgain, err := core.NewHybridFT(prog, core.StaticConfig{Cache: cache, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = soundAgain
	final := cache.Stats()
	if final.Misses != after.Misses {
		t.Fatal("sound artifacts were not warm after refinement")
	}
}

// nullProg has an input-guarded nil escape: profiling visits both
// branches (inputs span the a>100 split) yet every profiled load of p
// sees &buf, so the deref check is discharged optimistically on the
// non-null fact alone; a huge input skips the repair branch and
// refutes exactly that fact — the null client's refinement trigger,
// with no unreachable-block violation in the way.
const nullProg = `
	global p = 0;
	global buf = 7;
	func main() {
		var a = input(0);
		if (a > 100) {
			p = 0;
		}
		if (a < 1000) {
			p = &buf;
		}
		var v = *p;
		print(v);
	}
`

// TestRefineAndRetryNull: the full loop on the refuted non-null fact —
// gen 1 rolls back to the sound run, gen 2 keeps the residual check
// and runs the identical execution clean, and every attempt reports
// the same nil-deref verdicts as the always-check baseline.
func TestRefineAndRetryNull(t *testing.T) {
	prog := lang.MustCompile(nullProg)
	pr, err := core.Profile(prog, func(run int) core.Execution {
		return core.Execution{Inputs: []int64{int64(run * 40)}, Seed: uint64(run + 1)}
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cache := artifacts.New("")
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: cache}})

	e := core.Execution{Inputs: []int64{2000}, Seed: 3}
	base, err := core.RunNullAlways(prog, e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.NilSites) != 1 {
		t.Fatalf("baseline nil sites = %v, want one", base.NilSites)
	}

	attempts, err := Run(m, core.Null(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 2 {
		t.Fatalf("attempts = %d, want 2 (rollback then clean retry)", len(attempts))
	}
	first, second := attempts[0], attempts[1]
	if first.Generation != 1 || !first.Report.RolledBack {
		t.Fatalf("first attempt: gen=%d rolledback=%v", first.Generation, first.Report.RolledBack)
	}
	if first.Report.Violation.Kind != core.ViolationNonNull {
		t.Fatalf("violation kind = %q", first.Report.Violation.Kind)
	}
	if first.Report.DischargedChecks == 0 {
		t.Fatal("gen 1 discharged no checks — nothing was speculative")
	}
	if second.Generation != 2 || second.Report.RolledBack {
		t.Fatalf("second attempt: gen=%d rolledback=%v violation=%s",
			second.Generation, second.Report.RolledBack, second.Report.Violation)
	}
	for i, a := range attempts {
		if !core.SameNullVerdicts(base, a.Report) {
			t.Fatalf("attempt %d: nil sites %v diverged from baseline %v",
				i, a.Report.NilSites, base.NilSites)
		}
	}
	if got := m.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}
	if m.DB().NonNullLoads.Has(first.Report.Violation.Site) {
		t.Fatal("refinement left the refuted non-null fact in place")
	}

	// The refined generation never pays a second rollback for the
	// same execution.
	again, err := Run(m, core.Null(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0].Report.RolledBack {
		t.Fatalf("post-refinement run: %d attempts, rolledback=%v",
			len(again), again[0].Report.RolledBack)
	}
	st := m.Status()
	if got := st.Clients["nullcheck"]; got.Runs != 3 || got.Rollbacks != 1 {
		t.Fatalf("nullcheck client stats = %+v, want runs 3 rollbacks 1", got)
	}
}
