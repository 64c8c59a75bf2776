package invariants

import (
	"bytes"
	"math/rand"
	"testing"

	"oha/internal/bitset"
)

// randDB generates a database exercising all seven invariant kinds
// with rng-driven density, including sometimes-empty sections.
func randDB(rng *rand.Rand) *DB {
	db := NewDB()
	for i, n := 0, rng.Intn(40); i < n; i++ {
		db.Visited.Add(rng.Intn(500))
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		db.MustAliasLocks[NormPair(rng.Intn(100), rng.Intn(100))] = true
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		db.SingletonSpawns.Add(rng.Intn(200))
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		db.ElidableLocks.Add(rng.Intn(200))
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		site := rng.Intn(100)
		set := db.Callees[site]
		if set == nil {
			set = bitset.New(0)
			db.Callees[site] = set
		}
		for j, m := 0, 1+rng.Intn(4); j < m; j++ {
			set.Add(rng.Intn(50))
		}
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		depth := rng.Intn(4) // 0 = the empty (root) context
		ctx := make([]int, depth)
		for j := range ctx {
			ctx[j] = rng.Intn(64)
		}
		db.Contexts.Add(ctx)
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		db.NonNullLoads.Add(rng.Intn(300))
	}
	return db
}

// withoutCallees returns db with the callee-set invariant switched off
// (nil Callees), which the text format must keep apart from an empty
// map.
func withoutCallees(db *DB) *DB {
	c := db.Clone()
	c.Callees = nil
	return c
}

// TestRoundTripProperty: Parse(Format(db)) is the identity for
// arbitrary databases — the text format loses nothing, for any mix of
// the seven invariant kinds, with the callee-set invariant on or off.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0ffa))
	for trial := 0; trial < 400; trial++ {
		db := randDB(rng)
		if trial%2 == 1 {
			db = withoutCallees(db)
		}
		var buf bytes.Buffer
		if _, err := db.WriteTo(&buf); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, buf.String())
		}
		if !got.Equal(db) || (got.Callees == nil) != (db.Callees == nil) {
			t.Fatalf("trial %d: round trip changed the database\ncounts in  %+v\ncounts out %+v\ntext:\n%s",
				trial, db.Count(), got.Count(), buf.String())
		}
	}
}

// TestNilAndEmptyCalleesDiffer: a nil Callees map (invariant off) and an
// empty one (no indirect site has a callee) are different databases, so
// their texts, and with them every digest built on the text, differ;
// Clone keeps each as it is.
func TestNilAndEmptyCalleesDiffer(t *testing.T) {
	empty := NewDB()
	off := withoutCallees(empty)
	if empty.Equal(off) || off.Equal(empty) {
		t.Fatal("nil and empty Callees compare equal")
	}
	var a, b bytes.Buffer
	if _, err := empty.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := off.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("nil and empty Callees serialize the same:\n%s", a.String())
	}
	if off.Clone().Callees != nil || empty.Clone().Callees == nil {
		t.Fatal("Clone does not keep nil and empty Callees apart")
	}
	// Merging with the invariant off switches it off: nil constrains no
	// site, the top of the union.
	m := empty.Clone()
	if !m.MergeInto(off) || m.Callees != nil {
		t.Fatal("merge with nil Callees kept the callee-set invariant on")
	}
	if m.MergeInto(empty) || m.Callees != nil {
		t.Fatal("merge into nil Callees turned the callee-set invariant back on")
	}
}

// TestFormatCanonical: formatting is deterministic — serializing a
// parsed database reproduces the original text byte for byte, so the
// format is usable as a content-address (the artifact cache relies on
// this).
func TestFormatCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(0xa11a))
	for trial := 0; trial < 100; trial++ {
		db := randDB(rng)
		if trial%2 == 1 {
			db = withoutCallees(db)
		}
		var first bytes.Buffer
		if _, err := db.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		reparsed, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if _, err := reparsed.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: format not canonical\nfirst:\n%s\nsecond:\n%s", trial, first.String(), second.String())
		}
	}
}

// TestRoundTripClonesIndependent: a parsed copy shares no state with
// the original — mutating one never leaks into the other.
func TestRoundTripClonesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randDB(rng)
	db.Visited.Add(1)
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got.Visited.Add(9999)
	got.MustAliasLocks[NormPair(9998, 9999)] = true
	if db.Visited.Has(9999) || db.MustAliasLocks[NormPair(9998, 9999)] {
		t.Fatal("parsed database aliases the original")
	}
}
