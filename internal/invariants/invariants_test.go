package invariants

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"oha/internal/bitset"
)

func sampleDB() *DB {
	db := NewDB()
	db.Visited.Add(1)
	db.Visited.Add(3)
	db.MustAliasLocks[NormPair(10, 20)] = true
	db.MustAliasLocks[NormPair(30, 5)] = true
	db.SingletonSpawns.Add(7)
	db.ElidableLocks.Add(10)
	db.Callees[42] = bitset.FromSlice([]int{1, 2})
	db.Contexts.Add(nil)
	db.Contexts.Add([]int{4, 9})
	return db
}

func TestNormPair(t *testing.T) {
	if NormPair(5, 3) != (LockPair{3, 5}) || NormPair(3, 5) != (LockPair{3, 5}) {
		t.Error("NormPair not canonical")
	}
}

func TestRoundTrip(t *testing.T) {
	db := sampleDB()
	var b strings.Builder
	if _, err := db.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v\ninput:\n%s", err, b.String())
	}
	if !db.Equal(back) {
		var b2 strings.Builder
		back.WriteTo(&b2)
		t.Fatalf("round trip changed DB:\n%s\nvs\n%s", b.String(), b2.String())
	}
}

func TestRoundTripEmpty(t *testing.T) {
	db := NewDB()
	var b strings.Builder
	db.WriteTo(&b)
	back, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(back) {
		t.Error("empty DB round trip failed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"[visited-blocks]\nxyz\n",
		"[must-alias-locks]\n1 2 3\n",
		"[callees]\nnocolon\n",
		"[callees]\nbad: 1\n",
		"5 6\n", // data before any section
		"[contexts]\n1 a\n",
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestMergeRules(t *testing.T) {
	a := NewDB()
	a.Visited.Add(1)
	a.MustAliasLocks[NormPair(1, 2)] = true
	a.MustAliasLocks[NormPair(3, 4)] = true
	a.SingletonSpawns.Add(5)
	a.SingletonSpawns.Add(6)
	a.ElidableLocks.Add(9)
	a.Callees[1] = bitset.FromSlice([]int{1})
	a.Contexts.Add([]int{1})

	b := NewDB()
	b.Visited.Add(2)
	b.MustAliasLocks[NormPair(1, 2)] = true
	b.SingletonSpawns.Add(6)
	b.Callees[1] = bitset.FromSlice([]int{2})
	b.Callees[7] = bitset.FromSlice([]int{3})
	b.Contexts.Add([]int{2})

	m := Merge(a, b)
	// Union kinds.
	if !m.Visited.Has(1) || !m.Visited.Has(2) {
		t.Error("visited not unioned")
	}
	if !m.Callees[1].Has(1) || !m.Callees[1].Has(2) || !m.Callees[7].Has(3) {
		t.Error("callees not unioned")
	}
	if !m.Contexts.Has([]int{1}) || !m.Contexts.Has([]int{2}) {
		t.Error("contexts not unioned")
	}
	// Intersection kinds.
	if !m.MustAliasLocks[NormPair(1, 2)] || m.MustAliasLocks[NormPair(3, 4)] {
		t.Errorf("must-alias not intersected: %v", m.MustAliasLocks)
	}
	if m.SingletonSpawns.Has(5) || !m.SingletonSpawns.Has(6) {
		t.Error("singleton spawns not intersected")
	}
	if m.ElidableLocks.Has(9) {
		t.Error("elidable locks not intersected")
	}
	// Merge must not mutate its inputs.
	if !a.MustAliasLocks[NormPair(3, 4)] {
		t.Error("Merge mutated input")
	}
}

// Property: merging more runs never grows the intersection kinds and
// never shrinks the union kinds (monotonicity of invariant learning).
func TestQuickMergeMonotonic(t *testing.T) {
	mk := func(vs []uint8, ss []uint8) *DB {
		db := NewDB()
		for _, v := range vs {
			db.Visited.Add(int(v))
		}
		for _, s := range ss {
			db.SingletonSpawns.Add(int(s))
		}
		return db
	}
	prop := func(v1, s1, v2, s2 []uint8) bool {
		a := mk(v1, s1)
		b := mk(v2, s2)
		m := Merge(a, b)
		return a.Visited.SubsetOf(m.Visited) &&
			m.SingletonSpawns.SubsetOf(a.SingletonSpawns) &&
			m.SingletonSpawns.SubsetOf(b.SingletonSpawns)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMustAlias(t *testing.T) {
	db := sampleDB()
	if !db.MustAliasLocks[NormPair(20, 10)] || !db.MustAliasLocks[NormPair(10, 20)] {
		t.Error("pair lookup not symmetric")
	}
	// A site does NOT must-alias itself unless profiled single-object:
	// striped-lock sites lock different objects on different runs.
	if db.MustAliasLocks[NormPair(8, 8)] {
		t.Error("unprofiled site must-aliases itself")
	}
	db.MustAliasLocks[NormPair(8, 8)] = true
	if !db.MustAliasLocks[NormPair(8, 8)] {
		t.Error("profiled single-object self-pair lost")
	}
	if db.MustAliasLocks[NormPair(10, 30)] {
		t.Error("unprofiled pair aliases")
	}
}

func TestCounts(t *testing.T) {
	c := sampleDB().Count()
	want := Counts{VisitedBlocks: 2, MustAliasPairs: 2, SingletonSpawns: 1,
		ElidableLocks: 1, CalleeSites: 1, CalleeTargets: 2, Contexts: 2}
	if c != want {
		t.Errorf("Counts = %+v, want %+v", c, want)
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	base := sampleDB()
	if !base.Equal(base.Clone()) {
		t.Fatal("clone not equal")
	}
	mutations := []func(*DB){
		func(d *DB) { d.Visited.Add(99) },
		func(d *DB) { delete(d.MustAliasLocks, NormPair(10, 20)) },
		func(d *DB) { d.SingletonSpawns.Add(99) },
		func(d *DB) { d.ElidableLocks.Remove(10) },
		func(d *DB) { d.Callees[42].Add(9) },
		func(d *DB) { d.Callees[43] = bitset.FromSlice([]int{1}) },
		func(d *DB) { d.Contexts.Add([]int{9, 9}) },
	}
	for i, mut := range mutations {
		d := base.Clone()
		mut(d)
		if base.Equal(d) || d.Equal(base) {
			t.Errorf("mutation %d not detected by Equal", i)
		}
	}
}

func TestContextSet(t *testing.T) {
	cs := NewContextSet()
	cs.Add([]int{1, 2, 3})
	cs.Add([]int{1, 2, 3}) // dup
	cs.Add(nil)
	if cs.Len() != 2 {
		t.Errorf("Len = %d, want 2", cs.Len())
	}
	if !cs.Has([]int{1, 2, 3}) || !cs.Has(nil) || cs.Has([]int{1, 2}) {
		t.Error("membership wrong")
	}
	paths := cs.SortedPaths()
	if len(paths) != 2 {
		t.Fatalf("SortedPaths = %v", paths)
	}
	// Add must copy its argument.
	p := []int{7, 8}
	cs.Add(p)
	p[0] = 999
	if !cs.Has([]int{7, 8}) {
		t.Error("Add aliased caller slice")
	}
}

// badIDInputs are databases naming a negative or out-of-range ID in
// each place Parse reads one, with the line that names it.
var badIDInputs = []struct {
	text string
	line int
}{
	{"[visited-blocks]\n1 -3\n", 2},
	{"[must-alias-locks]\n-1 4\n", 2},
	{"[singleton-spawns]\n-7\n", 2},
	{"[elidable-locks]\n2\n-2\n", 3},
	{"[callees]\n-4: 1\n", 2},
	{"[callees]\n4: 1 -1\n", 2},
	{"[contexts]\n.\n3 -5\n", 3},
	{"[non-null-loads]\n-9\n", 2},
	{"[visited-blocks]\n4611686018427387904\n", 2},
	{"[callees]\n1: 99999999999\n", 2},
}

// TestParseRejectsBadIDs: an ID that indexes no program table is a
// line-numbered error, never a panic — Parse reads untrusted bytes.
func TestParseRejectsBadIDs(t *testing.T) {
	for _, in := range badIDInputs {
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%q: Parse panicked: %v", in.text, r)
				}
			}()
			_, err = Parse(strings.NewReader(in.text))
		}()
		if want := fmt.Sprintf("line %d:", in.line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want an error at %s", in.text, err, want)
		}
	}
}
