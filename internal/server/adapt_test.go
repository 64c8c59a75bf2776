package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"oha/internal/core"
	"oha/internal/invariants"
	"oha/internal/lang"
)

// adaptSrc has a racy update on an input-guarded path: profiling with
// small inputs marks the `k > 100` branch likely-unreachable, so a
// large input violates the speculation, its rollback re-executes under
// a database without the fact, and the manager publishes that database
// as generation 2, under which the same input runs clean. A negative input violates the
// `k < 0` branch instead. `h = 7;` races unconditionally, so every
// sound report carries at least one race.
const adaptSrc = `
	global g = 0;
	global h = 0;
	func w(k) {
		if (k > 100) {
			g = g + 1;
		}
		if (k < 0) {
			g = g - 1;
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

// TestServerAdaptiveSpeculation is the daemon-side closed loop: profile
// → violating adaptive race job (rolls back to a refined generation,
// which the manager publishes) →
// /speculation generation bump and /metrics counters → an identical
// second job succeeds without any rollback, and its static setup comes
// entirely from the warm artifact cache.
func TestServerAdaptiveSpeculation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueSize: 16, JobTimeout: 30 * time.Second})
	id := c.submitProgram(adaptSrc)

	// Profile on a benign input: the racy branch stays unvisited.
	status, jobID := c.submitJob(JobRequest{
		Kind: "profile", ProgramID: id, Inputs: []int64{5}, Runs: 8, SaveAs: "adapt-itest",
	})
	if status != http.StatusAccepted {
		t.Fatalf("profile submit: status %d", status)
	}
	c.awaitDone(jobID)

	// Baseline FastTrack on the violating input: the ground truth the
	// adaptive job must match.
	_, baseID := c.submitJob(JobRequest{
		Kind: "race", ProgramID: id, Inputs: []int64{500}, Baseline: true,
	})
	baseline := c.awaitDone(baseID)

	// The violating adaptive job is one run: it rolls back on the
	// likely-unreachable branch and re-executes under the refined
	// generation, which the manager publishes as generation 2.
	_, raceID := c.submitJob(JobRequest{
		Kind: "race", ProgramID: id, Inputs: []int64{500}, InvariantsID: "adapt-itest", Adapt: true,
	})
	first := c.awaitDone(raceID)
	if !first["rolled_back"].(bool) || first["rolled_back_to"] != "refined" || first["generation"].(float64) != 2 {
		t.Fatalf("violating job = %v, want a rollback to a refined generation, published as generation 2", first)
	}
	if fmt.Sprint(first["refuted"]) != "[unreachable-block@"+fmt.Sprint(first["violation_site"])+"]" {
		t.Fatalf("violating job refuted %v, want its one unreachable block", first["refuted"])
	}
	if fmt.Sprint(first["races"]) != fmt.Sprint(baseline["races"]) {
		t.Fatalf("adaptive races %v != baseline %v", first["races"], baseline["races"])
	}

	// /speculation reports the generation bump with the violation
	// attributed to the unreachable-block invariant.
	var entry speculationEntry
	if status := c.do("GET", "/speculation?program="+id+"&invariants=adapt-itest", nil, &entry); status != http.StatusOK {
		t.Fatalf("speculation: status %d", status)
	}
	st := entry.Status
	if st.Generation != 2 || st.Runs != 1 || st.Rollbacks != 1 || len(st.History) != 2 {
		t.Fatalf("speculation status = %+v, want generation 2 after 1 run with 1 rollback", st)
	}
	if st.ViolationsByKind["unreachable-block"] != 1 {
		t.Fatalf("violations by kind = %v", st.ViolationsByKind)
	}
	if st.History[1].DBDigest == st.History[0].DBDigest {
		t.Fatal("refined generation kept the base DB digest")
	}
	if st.History[1].MaskDigest == "" || st.History[1].MaskDigest == st.History[0].MaskDigest {
		t.Fatalf("mask digests = %q -> %q, want a recompiled distinct mask",
			st.History[0].MaskDigest, st.History[1].MaskDigest)
	}
	var listing struct {
		Managers []speculationEntry `json:"managers"`
	}
	if status := c.do("GET", "/speculation", nil, &listing); status != http.StatusOK || len(listing.Managers) != 1 {
		t.Fatalf("speculation listing: status %d, %d managers", status, len(listing.Managers))
	}

	// /metrics carries the adaptive counters.
	_, mx := c.text("/metrics")
	if v := metricValue(t, mx, "oha_adapt_refinements_total"); v != 1 {
		t.Fatalf("oha_adapt_refinements_total = %v, want 1", v)
	}
	if v := metricValue(t, mx, `oha_adapt_rollbacks_total{client="race"}`); v != 1 {
		t.Fatalf("oha_adapt_rollbacks_total{client=race} = %v, want 1", v)
	}
	if !strings.Contains(mx, `oha_adapt_violations_total{client="race",kind="unreachable-block"} 1`) {
		t.Fatalf("client-labeled violation counter missing from exposition:\n%s", mx)
	}

	// The static pipeline: the job's rollback re-executed under the
	// generation its violation refines, so the reconcile deployed the
	// rollback's detector (the "masks" phase) and built no race
	// detector beyond generation 1's.
	if !strings.Contains(mx, `oha_static_phase_seconds_count{phase="masks",client="race"}`) {
		t.Fatalf("phase histogram for \"masks\" missing from exposition:\n%s", mx)
	}
	if v := metricValue(t, mx, raceBuilds); v != 1 {
		t.Fatalf("%s = %v, want 1: the rollback already built generation 2's detector", raceBuilds, v)
	}
	missesBefore := metricValue(t, mx, "ohad_artifact_cache_misses")

	// The identical second job: one clean run under generation 2, no
	// rollback, and no new cache misses — every static artifact it
	// needs is already warm.
	_, raceID2 := c.submitJob(JobRequest{
		Kind: "race", ProgramID: id, Inputs: []int64{500}, InvariantsID: "adapt-itest", Adapt: true,
	})
	second := c.awaitDone(raceID2)
	if second["generation"].(float64) != 2 || second["rolled_back"].(bool) {
		t.Fatalf("second job = %v, want a clean generation-2 run", second)
	}
	if fmt.Sprint(second["races"]) != fmt.Sprint(baseline["races"]) {
		t.Fatalf("second job races %v != baseline %v", second["races"], baseline["races"])
	}
	_, mx = c.text("/metrics")
	if v := metricValue(t, mx, "ohad_artifact_cache_misses"); v != missesBefore {
		t.Fatalf("cache misses %v -> %v: second adaptive job re-solved", missesBefore, v)
	}
	if v := metricValue(t, mx, `oha_adapt_post_refine_rollbacks_total{client="race"}`); v != 0 {
		t.Fatalf("post-refine rollbacks = %v, want 0", v)
	}

	// An adaptive slice job on the same pair reuses the manager (still
	// one manager listed) and stays on generation 2.
	_, sliceID := c.submitJob(JobRequest{
		Kind: "slice", ProgramID: id, Inputs: []int64{500}, InvariantsID: "adapt-itest", Adapt: true,
	})
	sl := c.awaitDone(sliceID)
	if sl["rolled_back"].(bool) || sl["generation"].(float64) != 2 {
		t.Fatalf("adaptive slice = %v, want clean generation-2", sl)
	}
	if status := c.do("GET", "/speculation", nil, &listing); status != http.StatusOK || len(listing.Managers) != 1 {
		t.Fatalf("after slice: %d managers", len(listing.Managers))
	}

	// An adaptive slice job violating the `k < 0` branch: its rollback
	// solves only the slicer's artifacts for generation 3, so the
	// reconcile builds generation 3's race detector, the one race build
	// generation 3 needs.
	_, sliceID2 := c.submitJob(JobRequest{
		Kind: "slice", ProgramID: id, Inputs: []int64{-5}, InvariantsID: "adapt-itest", Adapt: true,
	})
	sl = c.awaitDone(sliceID2)
	if sl["rolled_back_to"] != "refined" || sl["generation"].(float64) != 3 {
		t.Fatalf("violating adaptive slice = %v, want a rollback to a refined generation, published as generation 3", sl)
	}
	if status := c.do("GET", "/speculation?program="+id+"&invariants=adapt-itest", nil, &entry); status != http.StatusOK {
		t.Fatalf("speculation: status %d", status)
	}
	st = entry.Status
	_, mx = c.text("/metrics")
	if v := metricValue(t, mx, raceBuilds); v != 2 {
		t.Fatalf("%s = %v, want 2: generations 1 and 3", raceBuilds, v)
	}
	if st.Generation != 3 {
		t.Fatalf("speculation generation %d, want 3", st.Generation)
	}
}

// raceBuilds counts the race detectors the daemon built, each timed
// once under the race client's static phase.
const raceBuilds = `oha_static_phase_seconds_count{phase="race",client="race"}`

// TestServerExplicitRefineJob: violations observed by a plain (non-
// looping) adaptive observation path can be reconciled by an explicit
// refine job riding the same worker pool.
func TestServerExplicitRefineJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueSize: 8, JobTimeout: 30 * time.Second})
	id := c.submitProgram(adaptSrc)
	_, pid := c.submitJob(JobRequest{
		Kind: "profile", ProgramID: id, Inputs: []int64{5}, Runs: 4, SaveAs: "refine-itest",
	})
	c.awaitDone(pid)

	// A refine job with nothing pending publishes nothing.
	status, rid := c.submitJob(JobRequest{Kind: "refine", ProgramID: id, InvariantsID: "refine-itest"})
	if status != http.StatusAccepted {
		t.Fatalf("refine submit: status %d", status)
	}
	res := c.awaitDone(rid)
	if res["swapped"].(bool) || res["generation"].(float64) != 1 {
		t.Fatalf("idle refine = %v, want no swap at generation 1", res)
	}
	if status, _ := c.submitJob(JobRequest{Kind: "refine", ProgramID: id}); status != http.StatusBadRequest {
		t.Fatalf("refine without invariants_id: status %d, want 400", status)
	}
}

// TestServerMergeProgramMismatch covers the cross-program binding: an
// invariant DB saved by a profile job is bound to its program digest,
// and merging (or re-putting) it under a different program's digest is
// rejected with 409 Conflict — likely invariants name block and site
// IDs that mean nothing in another program.
func TestServerMergeProgramMismatch(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueSize: 16, JobTimeout: 30 * time.Second})
	idA := c.submitProgram(adaptSrc)
	idB := c.submitProgram(integSrc)

	_, pid := c.submitJob(JobRequest{
		Kind: "profile", ProgramID: idA, Inputs: []int64{5}, Runs: 4, SaveAs: "shared",
	})
	c.awaitDone(pid)

	var buf bytes.Buffer
	sampleDB(3).WriteTo(&buf) //nolint:errcheck

	// Merging under the owning program's digest is fine.
	if status := c.do("POST", "/v1/invariants/shared/merge?program="+idA, buf.String(), nil); status != http.StatusOK {
		t.Fatalf("same-program merge: status %d, want 200", status)
	}
	// Under a different program digest: 409, and no version appended.
	versions := c.invariantVersions("shared")
	if status := c.do("POST", "/v1/invariants/shared/merge?program="+idB, buf.String(), nil); status != http.StatusConflict {
		t.Fatalf("cross-program merge: status %d, want 409", status)
	}
	if status := c.do("PUT", "/v1/invariants/shared?program="+idB, buf.String(), nil); status != http.StatusConflict {
		t.Fatalf("cross-program put: status %d, want 409", status)
	}
	if got := c.invariantVersions("shared"); got != versions {
		t.Fatalf("rejected merge still appended a version: %d -> %d", versions, got)
	}

	// A profile job on program B merging into A's entry fails too.
	_, pid2 := c.submitJob(JobRequest{
		Kind: "profile", ProgramID: idB, Inputs: []int64{2}, Runs: 4, SaveAs: "shared", Merge: true,
	})
	env := c.await(pid2)
	if env["state"] != string(StateFailed) || !strings.Contains(env["error"].(string), "bound to") {
		t.Fatalf("cross-program profile merge = %v, want failure on binding", env)
	}

	// An adaptive job predicated on a foreign DB fails before running.
	_, rid := c.submitJob(JobRequest{
		Kind: "race", ProgramID: idB, Inputs: []int64{2}, InvariantsID: "shared", Adapt: true,
	})
	env = c.await(rid)
	if env["state"] != string(StateFailed) || !strings.Contains(env["error"].(string), "bound to") {
		t.Fatalf("adaptive job on foreign DB = %v, want binding failure", env)
	}

	// Unknown managers 404 on the filtered speculation endpoint.
	if status := c.do("GET", "/speculation?program="+idB+"&invariants=shared", nil, nil); status != http.StatusNotFound {
		t.Fatalf("speculation for absent manager: status %d, want 404", status)
	}
}

// invariantVersions reads the version count via the JSON PUT response
// of the list endpoint's metadata — cheaper: reuse the store directly
// is not possible from the client, so count via the text endpoint.
func (c *testClient) invariantVersions(id string) int {
	c.t.Helper()
	n := 0
	for {
		status, _ := c.text("/v1/invariants/" + id + "?version=" + fmt.Sprint(n+1))
		if status != http.StatusOK {
			return n
		}
		n++
	}
}

// TestInvariantStoreProgramBindingPersists: the binding survives a
// store reopen from the same state dir.
func TestInvariantStoreProgramBindingPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenInvariantStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := invariants.NewDB()
	db.Visited.Add(1)
	if _, err := s.PutFor("bound", "prog-a", db); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MergeFor("bound", "prog-b", db); err == nil {
		t.Fatal("cross-program merge accepted")
	}

	s2, err := OpenInvariantStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.ProgramOf("bound"); got != "prog-a" {
		t.Fatalf("reopened binding = %q, want prog-a", got)
	}
	if _, err := s2.MergeFor("bound", "prog-b", db); err == nil {
		t.Fatal("cross-program merge accepted after reopen")
	}
	if _, err := s2.MergeFor("bound", "prog-a", db); err != nil {
		t.Fatalf("same-program merge after reopen: %v", err)
	}
}

// nullSrc derefs a global pointer twice, once per input. Profiling
// with inputs that exercise both the nil branch and the repair keeps
// every observed load of p non-null, so the deref check is discharged
// on the likely-non-null fact; a huge second input skips the repair
// and refutes the fact at runtime.
const nullSrc = `
	global p = 0;
	global buf = 7;
	func visit(a) {
		if (a > 100) {
			p = 0;
		}
		if (a < 1000) {
			p = &buf;
		}
		var v = *p;
		print(v);
	}
	func main() {
		visit(input(0));
		visit(input(1));
	}
`

// TestServerNullcheckAdaptive is the daemon-side closed loop for the
// null client: profile → check elision on a benign input → violating
// adaptive nullcheck job (rolls back to a generation without the
// non-null fact, which the manager publishes) → /speculation and
// /metrics carry the nullcheck client.
func TestServerNullcheckAdaptive(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueSize: 16, JobTimeout: 30 * time.Second})
	id := c.submitProgram(nullSrc)

	_, profID := c.submitJob(JobRequest{
		Kind: "profile", ProgramID: id, Inputs: []int64{50, 500}, Runs: 8, SaveAs: "null-itest",
	})
	c.awaitDone(profID)

	// On the benign input the optimistic checker elides the deref
	// check the static phase discharged.
	_, cleanID := c.submitJob(JobRequest{
		Kind: "nullcheck", ProgramID: id, Inputs: []int64{50, 500}, InvariantsID: "null-itest",
	})
	clean := c.awaitDone(cleanID)
	if clean["rolled_back"].(bool) || clean["discharged_checks"].(float64) == 0 {
		t.Fatalf("clean job = %v, want no rollback and discharged checks", clean)
	}
	if clean["checked_derefs"].(float64) != 0 {
		t.Fatalf("clean job executed %v residual checks, want 0", clean["checked_derefs"])
	}

	// Baseline always-check run on the violating input: ground truth.
	_, baseID := c.submitJob(JobRequest{
		Kind: "nullcheck", ProgramID: id, Inputs: []int64{50, 2000}, Baseline: true,
	})
	baseline := c.awaitDone(baseID)
	if fmt.Sprint(baseline["nil_sites"]) == "[]" {
		t.Fatalf("baseline saw no nil deref: %v", baseline)
	}

	// The violating adaptive job refutes the non-null fact and
	// re-executes under the refined generation, which the manager
	// publishes as generation 2.
	_, nullID := c.submitJob(JobRequest{
		Kind: "nullcheck", ProgramID: id, Inputs: []int64{50, 2000}, InvariantsID: "null-itest", Adapt: true,
	})
	first := c.awaitDone(nullID)
	if first["rolled_back_to"] != "refined" || first["generation"].(float64) != 2 {
		t.Fatalf("violating job = %v, want a rollback to a refined generation, published as generation 2", first)
	}
	if fmt.Sprint(first["nil_sites"]) != fmt.Sprint(baseline["nil_sites"]) {
		t.Fatalf("adaptive nil sites %v != baseline %v", first["nil_sites"], baseline["nil_sites"])
	}
	if fmt.Sprint(first["output"]) != fmt.Sprint(baseline["output"]) {
		t.Fatalf("adaptive output %v != baseline %v", first["output"], baseline["output"])
	}

	// /speculation attributes the rollback to the non-null invariant
	// under the nullcheck client.
	var entry speculationEntry
	if status := c.do("GET", "/speculation?program="+id+"&invariants=null-itest", nil, &entry); status != http.StatusOK {
		t.Fatalf("speculation: status %d", status)
	}
	st := entry.Status
	if st.Generation != 2 || st.Rollbacks != 1 {
		t.Fatalf("speculation status = %+v, want generation 2 with 1 rollback", st)
	}
	if st.ViolationsByKind["non-null-load"] != 1 {
		t.Fatalf("violations by kind = %v", st.ViolationsByKind)
	}
	if cs := st.Clients["nullcheck"]; cs.Runs != 1 || cs.Rollbacks != 1 {
		t.Fatalf("nullcheck client stats = %+v, want runs 1 rollbacks 1", cs)
	}

	// /metrics carries the client-labeled adaptive families and the
	// null static phase.
	_, mx := c.text("/metrics")
	if v := metricValue(t, mx, `oha_adapt_runs_total{client="nullcheck"}`); v != 1 {
		t.Fatalf("oha_adapt_runs_total{client=nullcheck} = %v, want 1", v)
	}
	if !strings.Contains(mx, `oha_adapt_violations_total{client="nullcheck",kind="non-null-load"} 1`) {
		t.Fatalf("nullcheck violation counter missing from exposition:\n%s", mx)
	}
	if !strings.Contains(mx, `oha_static_phase_seconds_count{phase="nullproof",client="nullcheck"}`) {
		t.Fatalf("nullproof phase histogram missing from exposition:\n%s", mx)
	}
}

// TestServerSliceBaseline: a slice job with baseline=true runs full
// Giri — needing no invariants, and ignoring them when given — rather
// than the optimistic slicer.
func TestServerSliceBaseline(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueSize: 8, JobTimeout: 30 * time.Second})
	id := c.submitProgram(adaptSrc)
	_, jobID := c.submitJob(JobRequest{Kind: "profile", ProgramID: id, Inputs: []int64{5}, Runs: 8, SaveAs: "slice-base"})
	c.awaitDone(jobID)

	prog := lang.MustCompile(adaptSrc)
	_, crit, err := core.SliceCriterion(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := core.Execution{Inputs: []int64{500}, Seed: 1}
	giri, err := core.RunFullGiri(prog, crit, e, core.RunOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range []string{"", "slice-base"} {
		status, jobID := c.submitJob(JobRequest{Kind: "slice", ProgramID: id, Inputs: e.Inputs, Baseline: true, InvariantsID: inv})
		if status != http.StatusAccepted {
			t.Fatalf("invariants %q: submit status %d", inv, status)
		}
		res := c.awaitDone(jobID)
		if res["rolled_back"] != false || res["analysis_type"] != "" {
			t.Fatalf("invariants %q: baseline slice ran speculatively: %v", inv, res)
		}
		if res["trace_nodes"] != float64(giri.TraceNodes) || res["dyn_nodes"] != float64(giri.Slice.DynNodes) {
			t.Fatalf("invariants %q: result %v, want full Giri's %d trace / %d dynamic nodes",
				inv, res, giri.TraceNodes, giri.Slice.DynNodes)
		}
	}
}
