package server

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// sliceLUCSrc takes an input-guarded branch that profiling on small
// inputs never enters, so a large input rolls a slice job back.
const sliceLUCSrc = `
	global g = 0;
	func main() {
		if (input(0) > 50) {
			g = input(1);
		} else {
			g = 1;
		}
		print(g);
	}
`

// TestServerPlainSliceHonoursNoFastPath: a non-adaptive slice job runs
// under the daemon's static config, so with the fast paths disabled
// neither the speculative run nor its rollback re-execution settles or
// counts any event on the fast path.
func TestServerPlainSliceHonoursNoFastPath(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueSize: 8, JobTimeout: 30 * time.Second, NoFastPath: true})
	id := c.submitProgram(sliceLUCSrc)
	_, profID := c.submitJob(JobRequest{Kind: "profile", ProgramID: id, Inputs: []int64{3, 9}, Runs: 8, SaveAs: "fp"})
	c.awaitDone(profID)

	_, sliceID := c.submitJob(JobRequest{Kind: "slice", ProgramID: id, Inputs: []int64{99, 9}, InvariantsID: "fp"})
	res := c.awaitDone(sliceID)
	if !res["rolled_back"].(bool) {
		t.Fatalf("slice job = %v, want a rollback", res)
	}
	_, mx := c.text("/metrics")
	for _, name := range []string{"oha_trace_fastpath_hits_total", "oha_trace_fastpath_slow_total"} {
		if v := metricValue(t, mx, name+`{client="slice"}`); v != 0 {
			t.Errorf("%s{client=slice} = %v under NoFastPath, want 0", name, v)
		}
	}
}

// TestServerFastPathLabelsUseClientName: analysis job kinds are
// checked against core.ClientNames (an unknown kind is a bad request),
// and the fast-path counters are labeled with the client's name, the
// same value the job kind and the oha_adapt_* families use.
func TestServerFastPathLabelsUseClientName(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueSize: 8, JobTimeout: 30 * time.Second})
	id := c.submitProgram(nullSrc)
	_, profID := c.submitJob(JobRequest{Kind: "profile", ProgramID: id, Inputs: []int64{50, 500}, Runs: 8, SaveAs: "lbl"})
	c.awaitDone(profID)
	_, jobID := c.submitJob(JobRequest{Kind: "nullcheck", ProgramID: id, Inputs: []int64{50, 500}, InvariantsID: "lbl"})
	c.awaitDone(jobID)

	if status, _ := c.submitJob(JobRequest{Kind: "bogus", ProgramID: id, InvariantsID: "lbl"}); status != http.StatusBadRequest {
		t.Fatalf("unknown job kind: status %d, want 400", status)
	}

	_, mx := c.text("/metrics")
	metricValue(t, mx, `oha_trace_fastpath_hits_total{client="nullcheck"}`)
	if strings.Contains(mx, `client="null"`) {
		t.Fatalf("exposition carries a client=\"null\" label:\n%s", mx)
	}
}
