package core

import (
	"math/rand"
	"slices"
	"testing"

	"oha/internal/invariants"
)

// TestCtxTrieExact checks the call-context trie against the context set
// it was built from, over random sets that are often not prefix-closed
// and name sites outside the program: walking the trie along any path
// of in-range sites must reach a member state exactly when the set has
// the path, a path with an out-of-range site is never a member, and the
// path rebuilt from a state's parent links round-trips.
func TestCtxTrieExact(t *testing.T) {
	const nsites = 5
	rng := rand.New(rand.NewSource(1))
	randPath := func(maxLen int) []int {
		p := make([]int, rng.Intn(maxLen+1))
		for i := range p {
			p[i] = rng.Intn(nsites+3) - 1 // -1 and nsites..nsites+1 are out of range
		}
		return p
	}
	// Every path over [-1, nsites+1] up to length 3, plus the members.
	var queries [][]int
	var extend func(p []int)
	extend = func(p []int) {
		queries = append(queries, p)
		if len(p) == 3 {
			return
		}
		for s := -1; s <= nsites+1; s++ {
			extend(append(slices.Clip(p), s))
		}
	}
	extend(nil)
	inRange := func(p []int) bool {
		for _, s := range p {
			if s < 0 || s >= nsites {
				return false
			}
		}
		return true
	}
	for set := 0; set < 300; set++ {
		cs := invariants.NewContextSet()
		for n := rng.Intn(12); n > 0; n-- {
			cs.Add(randPath(5))
		}
		tr := newCtxTrie(cs.SortedPaths(), nsites)
		for _, q := range append(queries, cs.SortedPaths()...) {
			st, from := int32(0), int32(0)
			for _, s := range q {
				from, st = st, tr.next(st, s)
			}
			if want := cs.Has(q) && inRange(q); tr.known(st) != want {
				t.Fatalf("set %d %v: path %v known = %v, want %v", set, cs.SortedPaths(), q, !want, want)
			}
			if len(q) > 0 && from >= 0 {
				if got := tr.path(from, q[len(q)-1]); !slices.Equal(got, q) {
					t.Fatalf("set %d %v: path %v rebuilt as %v", set, cs.SortedPaths(), q, got)
				}
			}
		}
	}
}
