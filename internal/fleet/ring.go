// Package fleet turns the single-process ohad daemon into a sharded,
// replicated multi-node service. Everything the pipeline stores is
// already content-addressed (programs, compiled images, static
// artifacts key on SHA-256 digests), so placement is pure arithmetic: a
// consistent-hash ring over the static member list maps every digest
// to an owner and a replica set, any node can accept any request and
// forward it to the owner, and the versioned invariant store
// replicates through an append-only per-leader log whose replay is
// deterministic — replicas converge to digest-identical database
// generation histories.
//
// The package provides:
//
//   - Ring: consistent-hash placement with virtual nodes;
//   - Membership: static membership from -peers with health polling;
//   - Log / Apply: the replicated invariant-DB log and its
//     version-gated, idempotent replay;
//   - ProgramTier / InvariantTier: server.ProgramBackend /
//     server.InvariantBackend implementations that route to owners
//     over HTTP, turning a node into a stateless frontend over the
//     fleet's state tier;
//   - Node: the fleet wrapper around server.Server — digest-routed
//     job placement, fleet-level admission control, replication
//     loops, and the /fleet/* internal API;
//   - Client: an HTTP client with jittered, Retry-After-honoring
//     backoff shared by oha, ohaload, and the tiers.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// hash64 maps a string to a uint64 ring position via SHA-256, so
// placement is identical across processes, architectures, and runs —
// a requirement for nodes to agree on owners without coordination.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over a fixed member list. Each member
// contributes vnodes virtual points, which evens out ownership (with
// 64 points per node, shard sizes stay within a few percent of even)
// and spreads the keys of a removed node across all survivors instead
// of dumping them on one neighbor.
//
// A Ring is immutable after New: failover is a routing decision
// (skip dead owners in Owners order), not a ring mutation, so every
// node computes identical placement from the identical -peers list.
type Ring struct {
	vnodes int
	nodes  []string
	points []point
}

// NewRing builds a ring over nodes (deduplicated, order-insensitive)
// with the given number of virtual nodes per member (<= 0: 64).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	seen := map[string]bool{}
	var uniq []string
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, nodes: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring members, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct nodes for key in ring order: the
// owner first, then the failover/replica successors. Placement is a
// pure function of (member list, vnodes, key).
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Keys used on the ring. Programs and invariant databases hash into
// disjoint key spaces so an invariant id never aliases a program
// digest.
func programKey(id string) string   { return "prog:" + id }
func invariantKey(id string) string { return "inv:" + id }
