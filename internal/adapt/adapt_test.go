package adapt

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/metrics"
	"oha/internal/progen"
	"oha/internal/workloads"
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

// TestRefineAndRetryRace: one violating job on the LUC trigger is one
// run. Its rollback chain re-executes it under the refined database,
// which the manager publishes as generation 2 and counts as one run
// and one rollback; the same execution then runs clean under it.
func TestRefineAndRetryRace(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})

	e := core.Execution{Inputs: []int64{500}, Seed: 3}
	ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, core.Race(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if !rep.RolledBack || rep.RolledBackTo != core.RollbackRefined || rep.Violation.Kind != core.ViolationUnreachableBlock {
		t.Fatalf("violating run: rolledBack=%v to %q violation %v, want an unreachable-block rollback to a refined generation",
			rep.RolledBack, rep.RolledBackTo, rep.Violation)
	}
	if !core.SameRaces(ft, rep) {
		t.Fatal("violating run diverged from FastTrack")
	}
	if st := m.Status(); st.Runs != 1 || st.Rollbacks != 1 || st.Generation != 2 || res.Generation != 2 {
		t.Fatalf("after one violating job: runs %d, rollbacks %d, generation %d (result %d); want 1, 1, 2",
			st.Runs, st.Rollbacks, st.Generation, res.Generation)
	}

	// The paper's promise: the same execution never costs a second
	// rollback.
	again, err := Run(m, core.Race(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Report.RolledBack || again.Generation != 2 || !core.SameRaces(ft, again.Report) {
		t.Fatalf("re-run after refinement: rolledBack=%v (%v) at generation %d", again.Report.RolledBack, again.Report.Violation, again.Generation)
	}
	if st := m.Status(); st.Runs != 2 || st.Rollbacks != 1 {
		t.Fatalf("after the re-run: runs %d, rollbacks %d; want 2, 1", st.Runs, st.Rollbacks)
	}
}

// TestRefineAndRetryElidedLockRace is the adaptive half of the
// elided-lock-race cell (core's TestCustomSyncRestoresTwoGroups):
// progen default seed 33, profiled on its first input vector, elides
// lock sites that order its accesses, so a testing execution reports a
// false race. The job refines exactly the elidable-locks fact, once:
// generation 2's one cause is that fact, its database is the profiled
// one without elidable locks, and every testing execution then runs
// clean under it with FastTrack's report. Results are the same at
// workers 1 and 8.
func TestRefineAndRetryElidedLockRace(t *testing.T) {
	inputs := randomInputs(33)
	prog := lang.MustCompile(progen.Generate(33, progen.DefaultConfig()))
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers/%d", workers), func(t *testing.T) {
			pr, err := core.ProfileWith(prog, func(run int) core.Execution {
				return core.Execution{Inputs: inputs[0], Seed: uint64(run + 1)}
			}, core.ProfileOptions{MaxRuns: 8, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if pr.DB.ElidableLocks.IsEmpty() {
				t.Fatal("profiling proposed no elidable lock")
			}
			m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New(""), Workers: workers}})
			e := core.Execution{Inputs: inputs[1], Seed: 1}
			ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(m, core.Race(), e, core.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report
			if rep.RolledBackTo != core.RollbackRefined || len(rep.Refuted) != 1 || rep.Violation.Kind != core.ViolationElidedLockRace {
				t.Fatalf("violating run: rolled back to %q refuting %v, want one elided-lock-race refinement", rep.RolledBackTo, rep.Refuted)
			}
			if !core.SameRaces(ft, rep) {
				t.Fatalf("violating run: races %v, FastTrack %v", rep.Races, ft.Races)
			}
			want := pr.DB.Clone()
			want.ElidableLocks.Clear()
			st := m.Status()
			if st.Generation != 2 || len(st.History[1].Causes) != 1 || st.History[1].Causes[0].Kind != core.ViolationElidedLockRace || !m.DB().Equal(want) {
				t.Fatalf("generation %d caused by %v; want generation 2 refining only the elidable locks", st.Generation, st.History[1].Causes)
			}
			for _, in := range inputs {
				for seed := uint64(1); seed <= 2; seed++ {
					e := core.Execution{Inputs: in, Seed: seed}
					ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					again, err := Run(m, core.Race(), e, core.RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if again.Report.RolledBack || again.Generation != 2 || !core.SameRaces(ft, again.Report) {
						t.Fatalf("%v under generation 2: rolledBack=%v (%v) at generation %d", e, again.Report.RolledBack, again.Report.Violation, again.Generation)
					}
				}
			}
		})
	}
}

// TestChainOfTwoFactsIsOneGeneration: a run whose rollback chain
// refutes two facts publishes one generation, caused by both facts,
// whose database is the one the chain ended on; the same execution
// then runs clean under it.
func TestChainOfTwoFactsIsOneGeneration(t *testing.T) {
	prog := lang.MustCompile(rareBranchesSrc)
	pr := profileDB(t, prog, []int64{0, 0, 0, 0}, 10)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})
	a := core.Slice(lastPrint(prog), 4096)
	e := core.Execution{Inputs: []int64{99, 1, 99, 2}, Seed: 1}

	res, err := Run(m, a, e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.RolledBackTo != core.RollbackRefined || len(rep.Refuted) != 2 {
		t.Fatalf("rolled back to %q refuting %v, want two facts and a refined re-execution", rep.RolledBackTo, rep.Refuted)
	}
	st := m.Status()
	if st.Generation != 2 || st.Runs != 1 || len(st.History) != 2 {
		t.Fatalf("generation %d after %d run(s) with %d history records, want generation 2 after 1 run", st.Generation, st.Runs, len(st.History))
	}
	if got := st.History[1].Causes; !reflect.DeepEqual(got, rep.Refuted) {
		t.Fatalf("generation 2 causes %v, want both refuted facts %v", got, rep.Refuted)
	}
	final := pr.DB.Clone()
	for _, v := range rep.Refuted {
		v.Refine(prog, final)
	}
	if got, want := st.History[1].DBDigest, final.Digest(); got != want {
		t.Fatalf("generation 2 digest %.12s, want the chain's final generation's %.12s", got, want)
	}
	det, _, err := current(m, a)
	if err != nil {
		t.Fatal(err)
	}
	if chain, ok := core.Memoized(res.Detector, m.DB()); !ok || chain != det {
		t.Fatalf("generation 2 does not deploy the chain's final generation (memoized %v)", ok)
	}

	again, err := Run(m, a, e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Report.RolledBack || m.Generation() != 2 {
		t.Fatalf("re-run: rolled back %v (refuted %v), generation %d", again.Report.RolledBack, again.Report.Refuted, m.Generation())
	}
	if !again.Report.Slice.Equal(rep.Slice) {
		t.Fatal("re-run's slice differs from the rolled-back run's")
	}
}

// rareBranchesSrc has two input-guarded branches that profiling on
// zero inputs never enters: an execution refutes one likely-unreachable
// block per large guard input, in order.
const rareBranchesSrc = `
	global g = 0;
	global h = 0;
	func main() {
		if (input(0) > 50) { g = input(1); }
		if (input(2) > 50) { h = input(3); }
		print(g + h);
	}
`

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
// through WidenCallees, generation 2 deploys the detector the first
// rollback's chain built, and every later execution runs clean there,
// reporting FastTrack's race.
func TestRefineAndRetryCalleeSetRace(t *testing.T) {
	prog := lang.MustCompile(refutedCalleeRaceSrc)
	pr := profileDB(t, prog, []int64{0}, 10)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})
	base, _, err := current(m, core.Race())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		e := core.Execution{Inputs: []int64{1}, Seed: seed}
		ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(m, core.Race(), e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		if seed == 1 && (rep.Violation.Kind != core.ViolationCalleeSet || rep.RolledBackTo != core.RollbackRefined) {
			t.Fatalf("first execution: violation %v, rolled back to %q; want a callee-set refinement", rep.Violation, rep.RolledBackTo)
		}
		if seed > 1 && rep.RolledBack || res.Generation != 2 {
			t.Fatalf("seed %d: rolled back %v, generation %d; want a clean generation-2 run", seed, rep.RolledBack, res.Generation)
		}
		if !core.SameRaces(ft, rep) || len(rep.RacyAddrs) == 0 {
			t.Fatalf("seed %d: races %v, FastTrack %v", seed, rep.RacyAddrs, ft.RacyAddrs)
		}
	}
	// Generation 2 deploys the detector the first rollback's chain
	// built for the refined database, not a second one.
	det, _, err := current(m, core.Race())
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
	res, err := Run(m, core.Race(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Report.Violation
	if v.Kind != core.ViolationSingletonSpawn {
		t.Fatalf("violation kind = %q", v.Kind)
	}
	if m.DB().SingletonSpawns.Has(v.Site) {
		t.Fatal("violated singleton fact still in refined DB")
	}
	again, err := Run(m, core.Race(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Report.RolledBack {
		t.Fatalf("did not converge: generation %d rolled back with %s", again.Generation, again.Report.Violation)
	}
}

// TestRefineAndRetrySlice: the slicer side of the loop against full
// Giri, on the violating run and on its re-run under generation 2.
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
	for run := 0; run < 2; run++ {
		res, err := Run(m, core.Slice(criterion, 512), e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.RolledBack != (run == 0) {
			t.Fatalf("run %d: rolled back %v (%s)", run, res.Report.RolledBack, res.Report.Violation)
		}
		if !full.Slice.Equal(res.Report.Slice) {
			t.Fatalf("run %d: slice diverged from full Giri", run)
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
	m := New(prog, db, Options{Static: cfg, Metrics: NewMetrics(reg)})
	res, err := Run(m, a, core.Execution{Inputs: []int64{500}, Seed: 3}, core.RunOptions{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Generation != 2 {
		t.Fatalf("%s: generation %d, want a refinement", name, res.Generation)
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

// TestOnePhaseObservationPerDetector: after a slice refinement of a
// manager that had built a race and a slice detector, every detector
// the two generations got is one observation under one phase. The
// race detector, which no rollback chain built for generation 2, is
// rebuilt and timed under "race" only; the slice detector, deployed
// from its rollback chain, is timed under "masks".
func TestOnePhaseObservationPerDetector(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	reg := metrics.NewRegistry()
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}, Metrics: NewMetrics(reg)})
	if res, err := Run(m, core.Race(), core.Execution{Inputs: []int64{5}, Seed: 3}, core.RunOptions{}); err != nil || res.Report.RolledBack {
		t.Fatalf("clean race run: %v", err)
	}
	if res, err := Run(m, core.Slice(lastPrint(prog), 512), core.Execution{Inputs: []int64{500}, Seed: 3}, core.RunOptions{}); err != nil || res.Generation != 2 {
		t.Fatalf("violating slice run: generation %d, %v; want a refinement", res.Generation, err)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]string{
		`oha_static_phase_seconds_count{phase="race",client="race"}`:   " 2\n",
		`oha_static_phase_seconds_count{phase="slice",client="slice"}`: " 1\n",
		`oha_static_phase_seconds_count{phase="masks",client="slice"}`: " 1\n",
		`oha_static_phase_seconds_count{phase="masks",client="race"}`:  "",
	} {
		i := strings.Index(sb.String(), series)
		got := ""
		if i >= 0 {
			got = sb.String()[i+len(series):]
			got = got[:strings.Index(got, "\n")+1]
		}
		if got != want {
			t.Errorf("%s%q, want %q", series, got, want)
		}
	}
}

// TestStaticPhaseMetricsExposition: the static phase histogram renders
// under its documented name with phase and client labels, and a nil
// *Metrics records nothing and never panics.
func TestStaticPhaseMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	met := NewMetrics(reg)
	met.observePhase("race", "race", 0.01)
	met.observePhase("masks", "slice", 0.02)

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`oha_static_phase_seconds_bucket{phase="race",client="race",le=`,
		`oha_static_phase_seconds_count{phase="masks",client="slice"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	var nilMet *Metrics
	nilMet.observePhase("race", "race", 1)
}

// TestStatusLedgerAndMetrics checks the ledger counters, history
// digests, and metrics registration after one refinement and a clean
// re-run.
func TestStatusLedgerAndMetrics(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	reg := metrics.NewRegistry()
	met := NewMetrics(reg)
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}, Metrics: met})

	for run := 0; run < 2; run++ {
		if _, err := Run(m, core.Race(), core.Execution{Inputs: []int64{500}, Seed: 3}, core.RunOptions{}); err != nil {
			t.Fatal(err)
		}
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
		t.Fatal("pending reconcile after the runs finished")
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
// completed run, with its final report — rolled back, charged with the
// aborted speculative run's dispatch counts, and counting each fact the
// rollback chain refuted — and a canceled run feeds it nothing.
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
	m := New(prog, db, Options{})
	res, err := Run(m, a, e, core.RunOptions{})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	out := res.Report.Base()
	if !out.RolledBack || out.Violation.Kind != core.ViolationUnreachableBlock {
		t.Fatalf("%s: rolledBack=%v violation=%v, want an unreachable-block rollback", a.Name, out.RolledBack, out.Violation)
	}
	byKind := map[core.ViolationKind]uint64{}
	for _, v := range out.Refuted {
		byKind[v.Kind]++
	}
	st := m.Status()
	if st.Runs != 1 || st.Rollbacks != 1 || st.IC != out.IC ||
		!reflect.DeepEqual(st.Clients, map[string]ClientStats{a.Name: {Runs: 1, Rollbacks: 1}}) ||
		!reflect.DeepEqual(st.ViolationsByKind, byKind) {
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
	// Replay the stale report by hand: a generation-1 detector
	// finishing late.
	v := m.Status().History[1].Causes[0]
	m.observe("race", 1, &core.Outcome{RolledBack: true, Violation: v, Refuted: []core.Violation{v}})
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
// generated programs and the race workloads: every run's results equal
// the sound baseline's (OptFT's FastTrack's, OptSlice's full Giri's),
// and a run that rolled back leaves a generation under which the same
// execution refutes none of its facts again — it runs clean when the
// rollback chain ended on a refined generation. The workloads include
// the dispatch programs, whose testing executions race with lock
// instrumentation elided, so that half refines too.
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
		m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})
		criterion := lastPrint(prog)
		name := fmt.Sprintf("seed %d", seed)
		for _, in := range inputs {
			for _, s := range []uint64{11, 12} {
				e := core.Execution{Inputs: in, Seed: s}
				ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
				if err != nil {
					t.Fatalf("%s: fasttrack: %v", name, err)
				}
				checkAdapts(t, name, src, m, core.Race(), e, func(r *core.RaceReport) bool { return core.SameRaces(ft, r) })
				if criterion != nil {
					full, err := core.RunFullGiri(prog, criterion, e, core.RunOptions{}, 0)
					if err != nil {
						t.Fatalf("%s: giri: %v", name, err)
					}
					checkAdapts(t, name, src, m, core.Slice(criterion, 512), e, func(r *core.SliceReport) bool { return full.Slice.Equal(r.Slice) })
				}
			}
		}
	}

	// The race workloads, profiled and tested on the evaluation's
	// execution ranges (profiling runs 0..7, testing runs 1000..1001
	// with seeds 2000..2001).
	rollbacks, generation := 0, 0
	for _, w := range append(workloads.Races(), workloads.ByName("dispatch-mono"), workloads.ByName("dispatch-poly")) {
		prog := w.Prog()
		pr, err := core.Profile(prog, func(run int) core.Execution {
			return core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
		}, 8)
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})
		for i := 0; i < 2; i++ {
			e := core.Execution{Inputs: w.GenInput(1000 + i), Seed: uint64(2000 + i)}
			ft, err := core.RunFastTrack(prog, e, core.RunOptions{})
			if err != nil {
				t.Fatalf("%s: fasttrack: %v", w.Name, err)
			}
			first, gen := checkAdapts(t, w.Name, w.Source, m, core.Race(), e, func(r *core.RaceReport) bool { return core.SameRaces(ft, r) })
			if first.RolledBack {
				rollbacks++
			}
			generation = max(generation, gen)
		}
	}
	if rollbacks == 0 || generation < 2 {
		t.Fatalf("the race workloads rolled back %d times and published generation %d: want a refinement", rollbacks, generation)
	}
}

// checkAdapts runs a on e under m twice and checks both reports with
// sound. The re-run must refute none of the refinable facts the first
// run's chain refuted, and must run clean when the chain ended on a
// refined generation. It returns the first run's outcome and the
// generation published after the re-run.
func checkAdapts[D core.Detector[R], R core.Report](t *testing.T, name, src string, m *Manager, a core.Analysis[D, R], e core.Execution, sound func(R) bool) (*core.Outcome, int) {
	t.Helper()
	var reps [2]*core.Outcome
	generation := 0
	for i := range reps {
		res, err := Run(m, a, e, core.RunOptions{})
		if err != nil {
			t.Fatalf("%s: adapt %s: %v", name, a.Name, err)
		}
		if !sound(res.Report) {
			t.Fatalf("%s: %s run %d (generation %d) diverged from the sound baseline\nprogram:\n%s", name, a.Name, i, res.Generation, src)
		}
		reps[i] = res.Report.Base()
		generation = res.Generation
	}
	first, again := reps[0], reps[1]
	if first.RolledBackTo == core.RollbackRefined && again.RolledBack {
		t.Fatalf("%s: %s re-run rolled back on %v after a chain that ended refined\nprogram:\n%s", name, a.Name, again.Refuted, src)
	}
	for _, v := range again.Refuted {
		for _, w := range first.Refuted {
			if v.Kind.Refinable() && reflect.DeepEqual(v, w) {
				t.Fatalf("%s: %s re-run refuted the refined fact %s again\nprogram:\n%s", name, a.Name, v, src)
			}
		}
	}
	return first, generation
}

// TestGenerationSequenceDeterministic: the acceptance determinism
// criterion — the refinement-generation sequence (DB digests and mask
// digests) is bit-identical across independent managers, profiling
// worker counts, and cache temperature: fresh caches, then a last pass
// on the first pass's warm cache.
func TestGenerationSequenceDeterministic(t *testing.T) {
	const seed = uint64(7)
	src := progen.Generate(seed, progen.DefaultConfig())
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(seed)

	warm := artifacts.New("")
	trials := []struct {
		workers int
		cache   *artifacts.Cache
	}{{1, warm}, {4, artifacts.New("")}, {8, artifacts.New("")}, {1, warm}}
	histories := make([][]GenerationRecord, 0, len(trials))
	for trial, tr := range trials {
		pr, err := core.ProfileWith(prog, func(run int) core.Execution {
			return core.Execution{Inputs: inputs[0], Seed: uint64(run + 1)}
		}, core.ProfileOptions{MaxRuns: 8, Workers: tr.workers})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: tr.cache}})
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
				res, err := Run(m, core.Race(), execs[i], core.RunOptions{})
				if err != nil {
					errs <- err
					return
				}
				if !core.SameRaces(want[i], res.Report) {
					errs <- errDiverged
					return
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
	// A run whose reconcile met one in flight leaves its refinement
	// pending (the daemon queues a refine job for it); publish it.
	if _, err := m.Reconcile(nil); err != nil {
		t.Fatal(err)
	}
	// Converged: one more pass over every execution runs clean.
	for i, e := range execs {
		res, err := Run(m, core.Race(), e, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.RolledBack {
			t.Fatalf("exec %d still rolls back after convergence", i)
		}
	}
}

var errDiverged = errors.New("adapted run diverged from FastTrack")

// TestWarmCacheReanalysis: refining solves only the refined
// database's predicated artifacts, never the sound ones (the rollback
// chain resolves without the sound fallback, which is built only on
// first use), and those solves are warm for a second manager on the
// same cache: reaching the same generation there misses nothing.
func TestWarmCacheReanalysis(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := profileDB(t, prog, []int64{5}, 20)
	cache := artifacts.New("")
	e := core.Execution{Inputs: []int64{500}, Seed: 3}
	refine := func() *Manager {
		m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: cache}})
		if _, err := Run(m, core.Race(), e, core.RunOptions{}); err != nil {
			t.Fatal(err)
		}
		if m.Generation() != 2 {
			t.Fatalf("generation %d after the violating run, want 2", m.Generation())
		}
		return m
	}
	refine()
	sound := core.StaticKeysOf(prog, nil)
	for kind, key := range map[string]string{artifacts.KindPointsTo: sound.PointsTo, artifacts.KindMHP: sound.MHP, artifacts.KindStaticRace: sound.StaticRace} {
		if _, ok := cache.Peek(key); ok {
			t.Errorf("refinement solved the sound %s", kind)
		}
	}
	before := cache.Stats()
	refine()
	after := cache.Stats()
	if after.Misses != before.Misses || after.Hits <= before.Hits {
		t.Fatalf("second manager: misses %d -> %d, hits %d -> %d; want only hits", before.Misses, after.Misses, before.Hits, after.Hits)
	}
}

// coldProg is the quickstart program. Profiled where the worker loop
// never runs (input 0), every client's analyzed run with input 3
// mis-speculates on the loop body and refines.
const coldProg = `
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

// TestRefinementSolvesOnlyItsClientsReads: a refinement under a manager
// without a race detector solves no race pipeline for the refined
// database, and reconciling solves nothing the run's rollback chain did
// not: the adaptive run costs the cache exactly the misses of the same
// run by a plain detector. The generations the chain passes through
// (the quickstart's null chain refutes an unreachable block, then a
// non-null load, which no points-to solve reads) share one CI
// points-to solve.
func TestRefinementSolvesOnlyItsClientsReads(t *testing.T) {
	prog := lang.MustCompile(coldProg)
	db := profileDB(t, prog, []int64{0}, 4).DB
	e := core.Execution{Inputs: []int64{3}, Seed: 2}
	checkRefinementSolves(t, prog, db, core.Slice(lastPrint(prog), 4096), e, 0)
	checkRefinementSolves(t, prog, db, core.Null(), e, 1)
}

// checkRefinementSolves runs a once on e under a fresh manager and
// checks the refinement's solves; wantPT is the number of CI points-to
// results solved for the generations its rollback chain passed through.
func checkRefinementSolves[D core.Detector[R], R core.Report](t *testing.T, prog *ir.Program, db *invariants.DB, a core.Analysis[D, R], e core.Execution, wantPT int) {
	t.Helper()
	cache := artifacts.New("")
	m := New(prog, db, Options{Static: core.StaticConfig{Cache: cache}})
	if _, _, err := current(m, a); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats().Misses
	res, err := Run(m, a, e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 {
		t.Fatalf("%s: generation %d, want a refinement", a.Name, res.Generation)
	}
	adaptive := cache.Stats().Misses - before

	// The reference: the same run by a plain detector, whose rollback
	// chain builds the same generations.
	ref := artifacts.New("")
	det, err := a.Build(prog, db, core.StaticConfig{Cache: ref})
	if err != nil {
		t.Fatal(err)
	}
	refBefore := ref.Stats().Misses
	if _, err := det.Run(e, core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if plain := ref.Stats().Misses - refBefore; adaptive != plain {
		t.Errorf("%s: the adaptive run cost %d cache misses, the plain run %d: reconciling re-solved", a.Name, adaptive, plain)
	}

	refined := core.StaticKeysOf(prog, m.DB())
	for kind, key := range map[string]string{artifacts.KindMHP: refined.MHP, artifacts.KindStaticRace: refined.StaticRace} {
		if _, ok := cache.Peek(key); ok {
			t.Errorf("%s: the refinement solved %s for the refined database, which no %s detector reads", a.Name, kind, a.Name)
		}
	}
	// One database per step of the chain: each prefix of the causes.
	pts := map[string]bool{}
	step := db.Clone()
	for _, v := range m.Status().History[1].Causes {
		v.Refine(prog, step)
		key := core.StaticKeysOf(prog, step).PointsTo
		if _, ok := cache.Peek(key); ok {
			pts[key] = true
		}
	}
	if len(pts) != wantPT {
		t.Errorf("%s: the refinement solved CI points-to for %d databases, want %d", a.Name, len(pts), wantPT)
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

// TestRefineAndRetryNull: the loop on the refuted non-null fact — the
// generation-1 run rolls back to a refined generation that keeps the
// residual check, generation 2 runs the identical execution clean, and
// both report the always-check baseline's nil-deref verdicts.
func TestRefineAndRetryNull(t *testing.T) {
	prog := lang.MustCompile(nullProg)
	pr, err := core.Profile(prog, func(run int) core.Execution {
		return core.Execution{Inputs: []int64{int64(run * 40)}, Seed: uint64(run + 1)}
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog, pr.DB, Options{Static: core.StaticConfig{Cache: artifacts.New("")}})

	e := core.Execution{Inputs: []int64{2000}, Seed: 3}
	base, err := core.RunNullAlways(prog, e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.NilSites) != 1 {
		t.Fatalf("baseline nil sites = %v, want one", base.NilSites)
	}

	first, err := Run(m, core.Null(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := first.Report.Violation
	if !first.Report.RolledBack || v.Kind != core.ViolationNonNull || first.Report.RolledBackTo != core.RollbackRefined {
		t.Fatalf("first run: rolledBack=%v violation %v to %q, want a non-null rollback to a refined generation",
			first.Report.RolledBack, v, first.Report.RolledBackTo)
	}
	if first.Detector.ElidedChecks() == 0 {
		t.Fatal("generation 1 discharged no checks — nothing was speculative")
	}
	if got := m.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}
	if m.DB().NonNullLoads.Has(v.Site) {
		t.Fatal("refinement left the refuted non-null fact in place")
	}

	// The refined generation never pays a second rollback for the
	// same execution.
	again, err := Run(m, core.Null(), e, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Report.RolledBack {
		t.Fatalf("post-refinement run rolled back with %s", again.Report.Violation)
	}
	for i, rep := range []*core.NullReport{first.Report, again.Report} {
		if !core.SameNullVerdicts(base, rep) {
			t.Fatalf("run %d: nil sites %v diverged from baseline %v", i, rep.NilSites, base.NilSites)
		}
	}
	if got := m.Status().Clients["nullcheck"]; got.Runs != 2 || got.Rollbacks != 1 {
		t.Fatalf("nullcheck client stats = %+v, want runs 2 rollbacks 1", got)
	}
}
