package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"oha/internal/invariants"
)

// integSrc is a small racy program: `a` is updated by both threads
// without a lock (a real race), `b` under a coarse lock. input(0)
// scales the work, so tests can make jobs fast or slow.
const integSrc = `
	global a = 0;
	global b = 0;
	global l = 0;

	func inc(n) {
		var i = 0;
		while (i < n) {
			a = a + 1;
			lock(&l);
			b = b + 1;
			unlock(&l);
			i = i + 1;
		}
	}

	func main() {
		var n = input(0);
		var t1 = spawn inc(n);
		var t2 = spawn inc(n);
		join(t1);
		join(t2);
		print(a);
		print(b);
	}
`

type testClient struct {
	t    *testing.T
	base string
	http *http.Client
}

func newTestClient(t *testing.T, ts *httptest.Server) *testClient {
	return &testClient{t: t, base: ts.URL, http: ts.Client()}
}

// do sends a request and decodes the JSON response into out (unless
// nil), returning the status code.
func (c *testClient) do(method, path string, body any, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		switch b := body.(type) {
		case string:
			rd = strings.NewReader(b)
		default:
			data, err := json.Marshal(body)
			if err != nil {
				c.t.Fatal(err)
			}
			rd = bytes.NewReader(data)
		}
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

// text GETs a non-JSON endpoint.
func (c *testClient) text(path string) (int, string) {
	c.t.Helper()
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// submitProgram stores integSrc and returns its content address.
func (c *testClient) submitProgram(src string) string {
	c.t.Helper()
	var pr programResponse
	status := c.do("POST", "/v1/programs", submitProgramRequest{Source: src}, &pr)
	if status != http.StatusCreated && status != http.StatusOK {
		c.t.Fatalf("submit program: status %d", status)
	}
	return pr.ID
}

// submitJob submits a job and returns (status, job ID).
func (c *testClient) submitJob(req JobRequest) (int, string) {
	c.t.Helper()
	var st JobStatus
	status := c.do("POST", "/v1/jobs", req, &st)
	return status, st.ID
}

// await polls a job to a terminal state and returns its result
// envelope.
func (c *testClient) await(id string) map[string]any {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if status := c.do("GET", "/v1/jobs/"+id, nil, &st); status != http.StatusOK {
			c.t.Fatalf("job %s: status %d", id, status)
		}
		if st.State == StateDone || st.State == StateFailed {
			var env map[string]any
			if status := c.do("GET", "/v1/jobs/"+id+"/result", nil, &env); status != http.StatusOK {
				c.t.Fatalf("job %s result: status %d", id, status)
			}
			return env
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("job %s never finished", id)
	return nil
}

// awaitDone is await asserting success, returning the result object.
func (c *testClient) awaitDone(id string) map[string]any {
	c.t.Helper()
	env := c.await(id)
	if env["state"] != string(StateDone) {
		c.t.Fatalf("job %s = %v, want done", id, env)
	}
	return env["result"].(map[string]any)
}

// metricValue extracts a single un-labeled metric value from a
// /metrics exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, exposition)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func newTestServer(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	return srv, newTestClient(t, ts)
}

// TestServerEndToEnd covers the full pipeline over HTTP: submit a
// program once, profile it, fetch the invariant DB, then run ≥ 8
// concurrent race and slice jobs against it; the second identical
// static setup must be served from the artifact cache (visible in
// /metrics).
func TestServerEndToEnd(t *testing.T) {
	_, c := newTestClient2(t)

	// --- programs are content-addressed and idempotent
	id := c.submitProgram(integSrc)
	var again programResponse
	if status := c.do("POST", "/v1/programs", submitProgramRequest{Source: integSrc}, &again); status != http.StatusOK || again.Created {
		t.Fatalf("resubmit: status %d created %v, want 200/false", status, again.Created)
	}
	if again.ID != id {
		t.Fatalf("resubmit ID %q != %q", again.ID, id)
	}
	if status, _ := c.submitJob(JobRequest{Kind: "race", ProgramID: "missing", Baseline: true}); status != http.StatusNotFound {
		t.Fatalf("job on unknown program: status %d, want 404", status)
	}

	// --- profile job produces a stored invariant DB
	status, jobID := c.submitJob(JobRequest{
		Kind: "profile", ProgramID: id, Inputs: []int64{3}, Runs: 8, SaveAs: "itest",
	})
	if status != http.StatusAccepted {
		t.Fatalf("profile submit: status %d", status)
	}
	profRes := c.awaitDone(jobID)
	if profRes["invariants_id"] != "itest" || profRes["version"].(float64) != 1 {
		t.Fatalf("profile result = %v", profRes)
	}

	// --- the stored DB round-trips through the text endpoint
	status, dbText := c.text("/v1/invariants/itest")
	if status != http.StatusOK {
		t.Fatalf("get invariants: status %d", status)
	}
	db, err := invariants.Parse(strings.NewReader(dbText))
	if err != nil {
		t.Fatalf("served DB unparseable: %v", err)
	}
	if db.Visited.Len() == 0 {
		t.Fatal("served DB has no visited blocks")
	}

	// --- first race job: cold static solve
	status, raceID := c.submitJob(JobRequest{
		Kind: "race", ProgramID: id, Inputs: []int64{3}, InvariantsID: "itest",
	})
	if status != http.StatusAccepted {
		t.Fatalf("race submit: status %d", status)
	}
	race1 := c.awaitDone(raceID)
	if len(race1["races"].([]any)) == 0 {
		t.Fatalf("race job found no races: %v", race1)
	}

	// --- second identical job: the static artifacts must come from
	// the cache (no repeated solve), observable via /metrics.
	_, mx := c.text("/metrics")
	hitsBefore := metricValue(t, mx, "ohad_artifact_cache_hits")
	missesBefore := metricValue(t, mx, "ohad_artifact_cache_misses")
	_, raceID2 := c.submitJob(JobRequest{
		Kind: "race", ProgramID: id, Inputs: []int64{3}, InvariantsID: "itest",
	})
	race2 := c.awaitDone(raceID2)
	if fmt.Sprint(race2["races"]) != fmt.Sprint(race1["races"]) {
		t.Fatalf("identical jobs disagree: %v vs %v", race2["races"], race1["races"])
	}
	_, mx = c.text("/metrics")
	if hits := metricValue(t, mx, "ohad_artifact_cache_hits"); hits <= hitsBefore {
		t.Fatalf("cache hits %v -> %v: second identical job did not hit the cache", hitsBefore, hits)
	}
	if misses := metricValue(t, mx, "ohad_artifact_cache_misses"); misses != missesBefore {
		t.Fatalf("cache misses %v -> %v: second identical job re-solved", missesBefore, misses)
	}

	// --- ≥ 8 parallel jobs (race + slice) against the one program
	const parallelJobs = 10
	results := make([]map[string]any, parallelJobs)
	var wg sync.WaitGroup
	for i := 0; i < parallelJobs; i++ {
		req := JobRequest{
			Kind: "race", ProgramID: id, Inputs: []int64{3},
			Seed: uint64(1 + i%2), InvariantsID: "itest",
		}
		if i%3 == 0 {
			req.Kind = "slice"
		}
		status, jid := c.submitJob(req)
		if status != http.StatusAccepted {
			t.Fatalf("parallel job %d: status %d", i, status)
		}
		wg.Add(1)
		go func(i int, jid string) {
			defer wg.Done()
			results[i] = c.awaitDone(jid)
		}(i, jid)
	}
	wg.Wait()
	for i, res := range results {
		if i%3 == 0 {
			if res["slice_instrs"].(float64) == 0 {
				t.Fatalf("slice job %d: empty slice: %v", i, res)
			}
		} else if len(res["races"].([]any)) == 0 {
			t.Fatalf("race job %d: no races: %v", i, res)
		}
	}

	// --- healthz (liveness) and readyz (readiness) report a serving daemon
	var hz map[string]any
	if status := c.do("GET", "/healthz", nil, &hz); status != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz = %d %v", status, hz)
	}
	var rz map[string]any
	if status := c.do("GET", "/readyz", nil, &rz); status != http.StatusOK || rz["status"] != "ready" {
		t.Fatalf("readyz = %d %v", status, rz)
	}
}

// newTestClient2 builds the end-to-end server: multiple workers, ample
// queue.
func newTestClient2(t *testing.T) (*Server, *testClient) {
	return newTestServer(t, Config{Workers: 4, QueueSize: 32, JobTimeout: 30 * time.Second})
}

// TestServerBackpressure verifies HTTP 429 under a tiny queue: one
// worker pinned by a slow job, one queue slot filled, the next
// submission must be rejected.
func TestServerBackpressure(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, QueueSize: 1, JobTimeout: 30 * time.Second})
	id := c.submitProgram(integSrc)

	// A slow baseline race job: 2 threads x 2M iterations keeps the
	// single worker busy far longer than the test needs.
	slow := JobRequest{Kind: "race", ProgramID: id, Inputs: []int64{2_000_000}, Baseline: true, TimeoutMS: 2000}
	status, slowID := c.submitJob(slow)
	if status != http.StatusAccepted {
		t.Fatalf("slow job: status %d", status)
	}
	// Wait until it occupies the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		c.do("GET", "/v1/jobs/"+slowID, nil, &st)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if status, _ := c.submitJob(slow); status != http.StatusAccepted {
		t.Fatalf("queue-slot job: status %d, want 202", status)
	}
	// The overflow 429 must carry a Retry-After hint for client backoff.
	body, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow job: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 30 {
		t.Fatalf("429 Retry-After = %q, want an integer in [1, 30]", resp.Header.Get("Retry-After"))
	}
	_, mx := c.text("/metrics")
	if rejected := metricValue(t, mx, "ohad_jobs_rejected_total"); rejected < 1 {
		t.Fatalf("ohad_jobs_rejected_total = %v, want >= 1", rejected)
	}
	// Let the slow jobs hit their 2s timeouts and drain via Cleanup.
	_ = srv
}

// TestServerGracefulShutdown: Shutdown drains a running job to
// completion while new submissions get 503 and healthz flips to
// draining.
func TestServerGracefulShutdown(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, QueueSize: 4, JobTimeout: 30 * time.Second})
	id := c.submitProgram(integSrc)

	// Long enough to still be running when Shutdown begins, short
	// enough to finish well before its timeout.
	status, jobID := c.submitJob(JobRequest{
		Kind: "race", ProgramID: id, Inputs: []int64{120_000}, Baseline: true,
	})
	if status != http.StatusAccepted {
		t.Fatalf("job submit: status %d", status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		c.do("GET", "/v1/jobs/"+jobID, nil, &st)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// New submissions must be rejected with 503 once draining begins.
	rejectDeadline := time.Now().Add(10 * time.Second)
	for {
		status, _ := c.submitJob(JobRequest{Kind: "race", ProgramID: id, Inputs: []int64{1}, Baseline: true})
		if status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(rejectDeadline) {
			t.Fatalf("submission during drain: status %d, want 503", status)
		}
		time.Sleep(time.Millisecond)
	}
	// Readiness flips to 503 so a fleet router stops placing jobs here;
	// liveness stays 200 — a draining node is still alive.
	if status, _ := c.text("/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", status)
	}
	if status, body := c.text("/healthz"); status != http.StatusOK || !strings.Contains(body, `"draining": true`) {
		t.Fatalf("healthz while draining: status %d body %s, want 200 + draining", status, body)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The in-flight job was drained to completion, not killed.
	env := c.await(jobID)
	if env["state"] != string(StateDone) {
		t.Fatalf("drained job = %v, want done", env)
	}
	res := env["result"].(map[string]any)
	if len(res["races"].([]any)) == 0 {
		t.Fatalf("drained job lost its result: %v", res)
	}
}

// TestServerJobTimeout: a tiny per-job timeout cancels a long
// execution via the interpreter's context polling.
func TestServerJobTimeout(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueSize: 4, JobTimeout: 30 * time.Second})
	id := c.submitProgram(integSrc)
	status, jobID := c.submitJob(JobRequest{
		Kind: "race", ProgramID: id, Inputs: []int64{50_000_000}, Baseline: true, TimeoutMS: 50,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	env := c.await(jobID)
	if env["state"] != string(StateFailed) {
		t.Fatalf("job = %v, want failed (timeout)", env)
	}
	if msg := env["error"].(string); !strings.Contains(msg, "canceled") {
		t.Fatalf("error = %q, want interp cancellation", msg)
	}
}

// TestServerInvariantEndpoints: put/merge/fetch with versions over
// HTTP, including the canonical text round-trip.
func TestServerInvariantEndpoints(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	db := sampleDB(3)
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var ir1 invariantsResponse
	if status := c.do("PUT", "/v1/invariants/webdb", buf.String(), &ir1); status != http.StatusOK || ir1.Version != 1 {
		t.Fatalf("put: %d %+v", status, ir1)
	}

	other := sampleDB(20)
	buf.Reset()
	other.WriteTo(&buf) //nolint:errcheck
	var ir2 invariantsResponse
	if status := c.do("POST", "/v1/invariants/webdb/merge", buf.String(), &ir2); status != http.StatusOK || ir2.Version != 2 {
		t.Fatalf("merge: %d %+v", status, ir2)
	}

	status, text := c.text("/v1/invariants/webdb?version=2")
	if status != http.StatusOK {
		t.Fatalf("get: status %d", status)
	}
	got, err := invariants.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Visited.Has(3) || !got.Visited.Has(20) {
		t.Fatalf("merged visited = %v", got.Visited.Slice())
	}
	if status, _ := c.text("/v1/invariants/webdb?version=9"); status != http.StatusNotFound {
		t.Fatalf("missing version: status %d, want 404", status)
	}
	if status := c.do("PUT", "/v1/invariants/bad..id", "# oha invariants v1\n", nil); status != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", status)
	}
	if status := c.do("PUT", "/v1/invariants/webdb", "[visited-blocks]\n1 -3\n", nil); status != http.StatusBadRequest {
		t.Fatalf("negative block ID: status %d, want 400", status)
	}
}
