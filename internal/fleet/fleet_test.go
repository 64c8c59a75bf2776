package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"oha/internal/server"
)

// fleetSrc is a small racy program with prints (so profile, race, and
// slice jobs all work); input(0) scales the work for slow jobs.
const fleetSrc = `
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

// adaptFleetSrc has a racy update on an input-guarded path: profiling
// with small inputs marks the branch likely-unreachable, so a large
// input violates the speculation and forces an adaptive refinement —
// the refined generation must then appear in the replicated history.
const adaptFleetSrc = `
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

type testNode struct {
	node *Node
	addr string
	hs   *http.Server
}

// kill simulates a crash: the HTTP listener closes, in-flight loops
// keep running but peers see connection errors.
func (tn *testNode) kill() { tn.hs.Close() } //nolint:errcheck

// newTestFleet boots count nodes on loopback listeners, each knowing
// the full peer list, with health and replication loops running.
func newTestFleet(t *testing.T, count int, scfg server.Config) []*testNode {
	t.Helper()
	lns := make([]net.Listener, count)
	addrs := make([]string, count)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	out := make([]*testNode, count)
	for i := range lns {
		node, err := NewNode(Config{
			Self:                addrs[i],
			Peers:               addrs,
			Replicas:            2,
			HealthInterval:      100 * time.Millisecond,
			ReplicationInterval: 50 * time.Millisecond,
			Server:              scfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: node.Handler()}
		go hs.Serve(lns[i]) //nolint:errcheck // closed on cleanup
		node.Start()
		out[i] = &testNode{node: node, addr: addrs[i], hs: hs}
	}
	t.Cleanup(func() {
		for _, tn := range out {
			tn.hs.Close() //nolint:errcheck
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			tn.node.Shutdown(ctx) //nolint:errcheck
			cancel()
		}
	})
	return out
}

// fc is a minimal HTTP client for one node's API.
type fc struct {
	t    *testing.T
	base string
	http *http.Client
}

func client(t *testing.T, tn *testNode) *fc {
	return &fc{t: t, base: "http://" + tn.addr, http: &http.Client{Timeout: 10 * time.Second}}
}

func (c *fc) do(method, path string, body any, out any) int {
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
		c.t.Fatalf("%s %s: %v", method, path, err)
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

func (c *fc) submitProgram(src string) string {
	c.t.Helper()
	var pr struct {
		ID string `json:"id"`
	}
	status := c.do("POST", "/v1/programs", map[string]string{"source": src}, &pr)
	if status != http.StatusCreated && status != http.StatusOK {
		c.t.Fatalf("submit program: status %d", status)
	}
	return pr.ID
}

func (c *fc) submitJob(req map[string]any) (int, string) {
	c.t.Helper()
	var st struct {
		ID string `json:"id"`
	}
	status := c.do("POST", "/v1/jobs", req, &st)
	return status, st.ID
}

func (c *fc) awaitDone(id string) map[string]any {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var env map[string]any
		status := c.do("GET", "/v1/jobs/"+id+"/result", nil, &env)
		if status == http.StatusOK {
			if env["state"] != "done" {
				c.t.Fatalf("job %s = %v, want done", id, env)
			}
			return env["result"].(map[string]any)
		}
		if status != http.StatusAccepted {
			c.t.Fatalf("job %s result: status %d", id, status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("job %s never finished", id)
	return nil
}

// byAddr indexes a fleet by advertised address.
func byAddr(nodes []*testNode) map[string]*testNode {
	m := map[string]*testNode{}
	for _, tn := range nodes {
		m[tn.addr] = tn
	}
	return m
}

// TestFleetDigestRoutingAndPolling: jobs land on the owner of their
// program digest no matter which frontend accepted them, the returned
// job id routes polls back from any frontend, and non-owner nodes
// serve program reads by fetching from the replica set.
func TestFleetDigestRoutingAndPolling(t *testing.T) {
	fleet := newTestFleet(t, 3, server.Config{Workers: 2, QueueSize: 16, JobTimeout: 30 * time.Second})
	id := client(t, fleet[0]).submitProgram(fleetSrc)
	owners := fleet[0].node.Ring().Owners(programKey(id), 2)

	for i, tn := range fleet {
		c := client(t, tn)
		status, jobID := c.submitJob(map[string]any{
			"kind": "profile", "program_id": id, "inputs": []int64{2},
			"runs": 2, "save_as": fmt.Sprintf("route-%d", i),
		})
		if status != http.StatusAccepted {
			t.Fatalf("node %d submit: status %d", i, status)
		}
		_, owner := splitJobID(jobID)
		if owner != owners[0] {
			t.Fatalf("node %d placed job on %s, want digest owner %s", i, owner, owners[0])
		}
		// Poll through a DIFFERENT frontend than the submitter.
		res := client(t, fleet[(i+1)%len(fleet)]).awaitDone(jobID)
		if res["runs"].(float64) != 2 {
			t.Fatalf("node %d result = %v", i, res)
		}
	}

	// Every node serves the program's metadata — non-owners fetch the
	// source from the replica set and recompile on demand.
	for i, tn := range fleet {
		var got struct {
			ID string `json:"id"`
		}
		if status := client(t, tn).do("GET", "/v1/programs/"+id, nil, &got); status != http.StatusOK || got.ID != id {
			t.Fatalf("node %d program read: status %d id %q", i, status, got.ID)
		}
	}

	// The ring endpoint agrees with local placement on every node.
	for i, tn := range fleet {
		var ring struct {
			Owners []string `json:"owners"`
		}
		if status := client(t, tn).do("GET", "/fleet/ring?program="+id, nil, &ring); status != http.StatusOK {
			t.Fatalf("node %d ring: status %d", i, status)
		}
		if fmt.Sprint(ring.Owners) != fmt.Sprint(owners) {
			t.Fatalf("node %d ring owners %v, want %v", i, ring.Owners, owners)
		}
	}
}

// TestFleetReplicationConvergesWithAdaptGeneration: the profiled
// database and a later adapt-refined generation flow through the
// replicated log until every replica holds a digest-identical version
// history, and a non-owner frontend reads the history remotely.
func TestFleetReplicationConvergesWithAdaptGeneration(t *testing.T) {
	fleet := newTestFleet(t, 3, server.Config{
		Workers: 2, QueueSize: 16, JobTimeout: 30 * time.Second,
	})
	nodes := byAddr(fleet)
	c := client(t, fleet[0])
	id := c.submitProgram(adaptFleetSrc)
	const invID = "fleet-adapt"

	_, profID := c.submitJob(map[string]any{
		"kind": "profile", "program_id": id, "inputs": []int64{5}, "runs": 8, "save_as": invID,
	})
	c.awaitDone(profID)

	// The violating adaptive job: rolls back to a refined generation,
	// which its manager publishes as generation 2 — and its node
	// publishes that generation into the log.
	_, raceID := c.submitJob(map[string]any{
		"kind": "race", "program_id": id, "inputs": []int64{500}, "invariants_id": invID, "adapt": true,
	})
	res := c.awaitDone(raceID)
	if res["generation"].(float64) != 2 || res["rolled_back_to"] != "refined" {
		t.Fatalf("adaptive job = %v, want a rollback to a refined generation, published as generation 2", res)
	}

	invOwners := fleet[0].node.Invariants().Owners(invID)
	if len(invOwners) != 2 {
		t.Fatalf("invariant owners = %v", invOwners)
	}
	// The acting leader's log must carry the refine record.
	leader := nodes[invOwners[0]]
	var hasRefine bool
	for _, rec := range leader.node.Invariants().Log().Since(0) {
		if rec.ID == invID && rec.Op == OpRefine {
			hasRefine = true
		}
	}
	if !hasRefine {
		t.Fatalf("leader %s log has no refine record: %+v", invOwners[0], leader.node.Invariants().Log().Since(0))
	}

	// Replication loops run every 50ms; wait for both replicas to
	// converge on the full 2-version history, digest-identical.
	deadline := time.Now().Add(15 * time.Second)
	for {
		a := nodes[invOwners[0]].node.Invariants().Local()
		b := nodes[invOwners[1]].node.Invariants().Local()
		if a.Versions(invID) == 2 && b.Versions(invID) == 2 {
			for v := 1; v <= 2; v++ {
				da, _, _ := a.Get(invID, v)
				db, _, _ := b.Get(invID, v)
				if dbDigest(da) != dbDigest(db) {
					t.Fatalf("version %d digests diverge: %s vs %s", v, dbDigest(da), dbDigest(db))
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: %s has %d versions, %s has %d",
				invOwners[0], a.Versions(invID), invOwners[1], b.Versions(invID))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Generation 2 is real refinement: its digest differs from v1.
	store := nodes[invOwners[0]].node.Invariants().Local()
	v1, _, _ := store.Get(invID, 1)
	v2, _, _ := store.Get(invID, 2)
	if dbDigest(v1) == dbDigest(v2) {
		t.Fatal("refined generation kept the profiled digest")
	}

	// A non-owner frontend reads both versions over the fleet.
	var nonOwner *testNode
	for _, tn := range fleet {
		if tn.addr != invOwners[0] && tn.addr != invOwners[1] {
			nonOwner = tn
		}
	}
	resp, err := http.Get("http://" + nonOwner.addr + "/v1/invariants/" + invID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Invariants-Version") != "2" {
		t.Fatalf("non-owner read: status %d version %q, want 200/v2",
			resp.StatusCode, resp.Header.Get("X-Invariants-Version"))
	}
}

// TestFleetFailover: with the digest owner dead, submissions through a
// surviving frontend land on the next replica and complete, and
// invariant writes elect the next alive owner as acting leader.
func TestFleetFailover(t *testing.T) {
	fleet := newTestFleet(t, 3, server.Config{Workers: 2, QueueSize: 16, JobTimeout: 30 * time.Second})
	nodes := byAddr(fleet)
	c := client(t, fleet[0])
	id := c.submitProgram(fleetSrc)
	owners := fleet[0].node.Ring().Owners(programKey(id), 2)

	nodes[owners[0]].kill()

	// Pick a surviving frontend (any node but the dead owner).
	var front *testNode
	for _, tn := range fleet {
		if tn.addr != owners[0] {
			front = tn
			break
		}
	}
	fc := client(t, front)
	status, jobID := fc.submitJob(map[string]any{
		"kind": "profile", "program_id": id, "inputs": []int64{2}, "runs": 2, "save_as": "failover-db",
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit after owner death: status %d", status)
	}
	if _, owner := splitJobID(jobID); owner != owners[1] {
		t.Fatalf("job placed on %s, want surviving replica %s", owner, owners[1])
	}
	res := fc.awaitDone(jobID)
	if res["version"].(float64) < 1 {
		t.Fatalf("failover profile result = %v", res)
	}

	// The invariant write routed to an ALIVE owner of its shard: some
	// surviving node's local store has it, and reads work fleet-wide.
	found := false
	for _, tn := range fleet {
		if tn.addr != owners[0] && tn.node.Invariants().Local().Versions("failover-db") > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no surviving node holds the invariant DB written during failover")
	}
	if st := fc.do("GET", "/v1/invariants/failover-db", nil, nil); st != http.StatusOK {
		t.Fatalf("invariant read after failover: status %d", st)
	}
}

// TestFleetGlobalShed: when every replica of a program's digest has a
// full queue, submission is rejected with 429 and a Retry-After hint
// regardless of which frontend took the request.
func TestFleetGlobalShed(t *testing.T) {
	fleet := newTestFleet(t, 2, server.Config{Workers: 1, QueueSize: 1, JobTimeout: 30 * time.Second})
	c := client(t, fleet[0])
	id := c.submitProgram(fleetSrc)

	// Slow baseline race jobs (2 threads x 2M iterations, 2s timeout)
	// fill both nodes: each takes 1 running + 1 queued, so the fifth
	// submission has nowhere to go.
	slow := map[string]any{
		"kind": "race", "program_id": id, "inputs": []int64{2_000_000},
		"baseline": true, "timeout_ms": 2000,
	}
	shed := false
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		body, _ := json.Marshal(slow)
		resp, err := http.Post("http://"+fleet[0].addr+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 || ra > 30 {
				t.Fatalf("fleet 429 Retry-After = %q, want an integer in [1, 30]", resp.Header.Get("Retry-After"))
			}
			shed = true
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
	}
	if !shed {
		t.Fatal("fleet never shed despite both replicas being saturated")
	}
}
