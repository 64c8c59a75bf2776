// Package invariants defines the likely-invariant database at the
// heart of optimistic hybrid analysis: the dynamically-profiled,
// probably-but-not-certainly-true facts that the predicated static
// analyses assume and the optimistic dynamic analyses verify.
//
// Six invariant kinds are exactly those of the paper:
//
//   - likely-unreachable code (OptFT §4.2.1, OptSlice §5.2.1)
//   - likely guarding locks (OptFT §4.2.2)
//   - likely singleton threads (OptFT §4.2.3)
//   - no custom synchronization (OptFT §4.2.4)
//   - likely callee sets (OptSlice §5.2.2)
//   - likely unused call contexts (OptSlice §5.2.3)
//
// A seventh kind extends the recipe to the OptNull client:
//
//   - likely non-null loads: load sites never observed reading a null
//     pointer in any profiled run (the nullability facts of "Gradual
//     Program Analysis for Null Pointers")
//
// Like the paper's tools, per-execution invariant sets are stored in a
// text format and merged across profiling runs — intersecting
// "unreachable-flavoured" invariants and unioning
// "reachable-flavoured" ones (§4.2, §5.2).
package invariants

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"oha/internal/bitset"
)

// LockPair is an unordered pair of lock-site instruction IDs profiled
// to always lock the same dynamic object (must-alias). A < B.
type LockPair struct {
	A, B int
}

// NormPair returns the pair in canonical (sorted) order.
func NormPair(a, b int) LockPair {
	if a > b {
		a, b = b, a
	}
	return LockPair{A: a, B: b}
}

// DB is a set of likely invariants for one program, gathered from one
// or more profiled executions.
type DB struct {
	// Visited holds the block IDs observed entered in any profiled
	// run. Its complement over the program's blocks is the
	// likely-unreachable code (LUC) set.
	Visited *bitset.Set

	// MustAliasLocks holds lock-site pairs that always locked the same
	// single dynamic object (likely guarding locks). A site must-aliases
	// itself only as a recorded self-pair: a striped-lock site that
	// locks different objects cannot prune even pairs with itself.
	MustAliasLocks map[LockPair]bool

	// SingletonSpawns holds spawn-site instruction IDs that created at
	// most one thread in every profiled run (likely singleton threads).
	SingletonSpawns *bitset.Set

	// ElidableLocks holds lock/unlock site IDs whose instrumentation
	// is elided (no-custom-synchronization invariant): the sites the
	// predicated static race analysis proposes, set by profiling and
	// validated by speculation, since a race reported while they are
	// elided rolls the run back and the refinement clears them.
	ElidableLocks *bitset.Set

	// Callees maps each indirect call-site instruction ID to the set
	// of function IDs observed as its targets (likely callee sets).
	Callees map[int]*bitset.Set

	// Contexts is the set of observed call contexts (likely unused
	// call contexts are its complement).
	Contexts *ContextSet

	// NonNullLoads holds load-site instruction IDs never observed
	// reading a null (zero) value in any profiled run — sites the
	// predicated non-nullness analysis may assume produce non-null
	// pointers (likely non-null loads). Sites that never executed
	// trivially qualify, exactly like never-spawning singleton sites.
	NonNullLoads *bitset.Set
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		Visited:         &bitset.Set{},
		MustAliasLocks:  map[LockPair]bool{},
		SingletonSpawns: &bitset.Set{},
		ElidableLocks:   &bitset.Set{},
		Callees:         map[int]*bitset.Set{},
		Contexts:        NewContextSet(),
		NonNullLoads:    &bitset.Set{},
	}
}

// Clone returns a deep copy of the database.
func (db *DB) Clone() *DB {
	c := NewDB()
	c.Visited = db.Visited.Clone()
	for k, v := range db.MustAliasLocks {
		c.MustAliasLocks[k] = v
	}
	c.SingletonSpawns = db.SingletonSpawns.Clone()
	c.ElidableLocks = db.ElidableLocks.Clone()
	if db.Callees == nil {
		c.Callees = nil // nil means "invariant disabled": preserve it
	} else {
		for k, v := range db.Callees {
			c.Callees[k] = v.Clone()
		}
	}
	c.Contexts = db.Contexts.Clone()
	c.NonNullLoads = db.NonNullLoads.Clone()
	return c
}

// MergeInto folds another run's invariants into db, applying the
// per-kind merge rule: union for reachable-flavoured facts (visited
// blocks, callee sets, contexts), intersection for
// unreachable-flavoured ones (must-alias pairs, singleton spawns,
// elidable locks, non-null loads). It reports whether db changed,
// which is exactly whether db before the merge was not Equal to db
// after it.
func (db *DB) MergeInto(run *DB) bool {
	changed := db.Visited.UnionWith(run.Visited)
	for k := range db.MustAliasLocks {
		if !run.MustAliasLocks[k] {
			delete(db.MustAliasLocks, k)
			changed = true
		}
	}
	changed = db.SingletonSpawns.IntersectWith(run.SingletonSpawns) || changed
	changed = db.ElidableLocks.IntersectWith(run.ElidableLocks) || changed
	// A nil Callees map (the invariant switched off) constrains no
	// site, so it absorbs every union.
	switch {
	case db.Callees == nil:
	case run.Callees == nil:
		db.Callees, changed = nil, true
	default:
		for site, set := range run.Callees {
			if cur, ok := db.Callees[site]; ok {
				changed = cur.UnionWith(set) || changed
			} else {
				db.Callees[site] = set.Clone()
				changed = true
			}
		}
	}
	changed = db.Contexts.UnionWith(run.Contexts) || changed
	return db.NonNullLoads.IntersectWith(run.NonNullLoads) || changed
}

// Merge combines per-run invariant databases into the final set, as
// the paper merges its per-run text files. It panics on an empty
// input.
func Merge(runs ...*DB) *DB {
	if len(runs) == 0 {
		panic("invariants: Merge of zero runs")
	}
	out := runs[0].Clone()
	for _, r := range runs[1:] {
		out.MergeInto(r)
	}
	return out
}

// Counts summarizes the database for logs and convergence checks.
type Counts struct {
	VisitedBlocks   int
	MustAliasPairs  int
	SingletonSpawns int
	ElidableLocks   int
	CalleeSites     int
	CalleeTargets   int
	Contexts        int
	NonNullLoads    int
}

// Count returns summary statistics.
func (db *DB) Count() Counts {
	c := Counts{
		VisitedBlocks:   db.Visited.Len(),
		MustAliasPairs:  len(db.MustAliasLocks),
		SingletonSpawns: db.SingletonSpawns.Len(),
		ElidableLocks:   db.ElidableLocks.Len(),
		CalleeSites:     len(db.Callees),
		Contexts:        db.Contexts.Len(),
		NonNullLoads:    db.NonNullLoads.Len(),
	}
	for _, s := range db.Callees {
		c.CalleeTargets += s.Len()
	}
	return c
}

// Equal reports whether two databases contain the same invariants —
// used by the profiling convergence loop ("profile until the number of
// learned dynamic invariants stabilizes", §6.1).
func (db *DB) Equal(o *DB) bool {
	if !db.Visited.Equal(o.Visited) ||
		!db.SingletonSpawns.Equal(o.SingletonSpawns) ||
		!db.ElidableLocks.Equal(o.ElidableLocks) ||
		!db.NonNullLoads.Equal(o.NonNullLoads) {
		return false
	}
	if len(db.MustAliasLocks) != len(o.MustAliasLocks) {
		return false
	}
	for k := range db.MustAliasLocks {
		if !o.MustAliasLocks[k] {
			return false
		}
	}
	if (db.Callees == nil) != (o.Callees == nil) || len(db.Callees) != len(o.Callees) {
		return false
	}
	for site, s := range db.Callees {
		os, ok := o.Callees[site]
		if !ok || !s.Equal(os) {
			return false
		}
	}
	return db.Contexts.Equal(o.Contexts)
}

// WriteTo serializes the database in the v1 text format.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, db.text().b.String())
	return int64(n), err
}

// Digest returns the hex SHA-256 of the database's v1 text.
func (db *DB) Digest() string { return db.text().Digest() }

func (db *DB) text() *Text {
	t := &Text{}
	t.b.WriteString("# oha invariants v1\n")
	return t.Visited(db.Visited).MustAlias(db.MustAliasLocks).Singletons(db.SingletonSpawns).
		Elidable(db.ElidableLocks).Callees(db.Callees).Contexts(db.Contexts).NonNull(db.NonNullLoads)
}

// Text builds sections of the v1 text format. A database writes all
// seven in order; a static solver's projection of it digests just the
// sections of the facts it reads.
type Text struct{ b strings.Builder }

// Digest returns the hex SHA-256 of the text.
func (t *Text) Digest() string {
	sum := sha256.Sum256([]byte(t.b.String()))
	return hex.EncodeToString(sum[:])
}

// Visited writes the visited blocks.
func (t *Text) Visited(s *bitset.Set) *Text { return t.ids("visited-blocks", s) }

// Singletons writes the singleton spawn sites.
func (t *Text) Singletons(s *bitset.Set) *Text { return t.ids("singleton-spawns", s) }

// Elidable writes the elidable lock sites.
func (t *Text) Elidable(s *bitset.Set) *Text { return t.ids("elidable-locks", s) }

// NonNull writes the non-null load sites.
func (t *Text) NonNull(s *bitset.Set) *Text { return t.ids("non-null-loads", s) }

func (t *Text) ids(header string, s *bitset.Set) *Text {
	t.b.WriteString("[" + header + "]\n")
	writeInts(&t.b, s.Slice())
	return t
}

// MustAlias writes the must-alias lock pairs in sorted order.
func (t *Text) MustAlias(m map[LockPair]bool) *Text {
	t.b.WriteString("[must-alias-locks]\n")
	pairs := make([]LockPair, 0, len(m))
	for p := range m {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	for _, p := range pairs {
		fmt.Fprintf(&t.b, "%d %d\n", p.A, p.B)
	}
	return t
}

// Callees writes the likely callee sets. A nil map (the invariant
// switched off) has no section; an empty one has an empty section (no
// indirect site has a callee).
func (t *Text) Callees(m map[int]*bitset.Set) *Text {
	if m == nil {
		return t
	}
	t.b.WriteString("[callees]\n")
	sites := make([]int, 0, len(m))
	for s := range m {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	for _, s := range sites {
		fmt.Fprintf(&t.b, "%d:", s)
		for _, f := range m[s].Slice() {
			fmt.Fprintf(&t.b, " %d", f)
		}
		t.b.WriteByte('\n')
	}
	return t
}

// Contexts writes the observed call contexts. A nil set (every context
// allowed, the call-context invariant switched off) has no section.
func (t *Text) Contexts(cs *ContextSet) *Text {
	if cs == nil {
		return t
	}
	t.b.WriteString("[contexts]\n")
	for _, path := range cs.SortedPaths() {
		if len(path) == 0 {
			t.b.WriteString(".\n") // the empty (thread-root) context
			continue
		}
		writeInts(&t.b, path)
	}
	return t
}

func writeInts(b *strings.Builder, xs []int) {
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(x))
	}
	b.WriteByte('\n')
}

// Parse reads a database in the v1 text format. A database without a
// [callees] section has the callee-set invariant switched off (nil
// Callees).
func Parse(r io.Reader) (*DB, error) {
	db := NewDB()
	db.Callees = nil
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	section := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			section = line[1 : len(line)-1]
			if section == "callees" && db.Callees == nil {
				db.Callees = map[int]*bitset.Set{}
			}
			continue
		}
		switch section {
		case "visited-blocks":
			xs, err := parseInts(line)
			if err != nil {
				return nil, fmt.Errorf("invariants: line %d: %w", lineNo, err)
			}
			for _, x := range xs {
				db.Visited.Add(x)
			}
		case "must-alias-locks":
			xs, err := parseInts(line)
			if err != nil || len(xs) != 2 {
				return nil, fmt.Errorf("invariants: line %d: bad lock pair %q", lineNo, line)
			}
			db.MustAliasLocks[NormPair(xs[0], xs[1])] = true
		case "singleton-spawns":
			xs, err := parseInts(line)
			if err != nil {
				return nil, fmt.Errorf("invariants: line %d: %w", lineNo, err)
			}
			for _, x := range xs {
				db.SingletonSpawns.Add(x)
			}
		case "elidable-locks":
			xs, err := parseInts(line)
			if err != nil {
				return nil, fmt.Errorf("invariants: line %d: %w", lineNo, err)
			}
			for _, x := range xs {
				db.ElidableLocks.Add(x)
			}
		case "callees":
			colon := strings.IndexByte(line, ':')
			if colon < 0 {
				return nil, fmt.Errorf("invariants: line %d: bad callee entry %q", lineNo, line)
			}
			site, err := parseID(strings.TrimSpace(line[:colon]))
			if err != nil {
				return nil, fmt.Errorf("invariants: line %d: %w", lineNo, err)
			}
			fs, err := parseInts(strings.TrimSpace(line[colon+1:]))
			if err != nil {
				return nil, fmt.Errorf("invariants: line %d: %w", lineNo, err)
			}
			set := db.Callees[site]
			if set == nil {
				set = &bitset.Set{}
				db.Callees[site] = set
			}
			for _, fid := range fs {
				set.Add(fid)
			}
		case "contexts":
			if line == "." {
				db.Contexts.Add(nil)
				continue
			}
			xs, err := parseInts(line)
			if err != nil {
				return nil, fmt.Errorf("invariants: line %d: %w", lineNo, err)
			}
			db.Contexts.Add(xs)
		case "non-null-loads":
			xs, err := parseInts(line)
			if err != nil {
				return nil, fmt.Errorf("invariants: line %d: %w", lineNo, err)
			}
			for _, x := range xs {
				db.NonNullLoads.Add(x)
			}
		default:
			return nil, fmt.Errorf("invariants: line %d: data outside a known section", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}

// maxID bounds the IDs a database may name. IDs index a program's
// block, instruction and function tables; the bound keeps one hostile
// integer from sizing a set's storage.
const maxID = 1 << 20

// parseID parses one ID in [0, maxID).
func parseID(f string) (int, error) {
	v, err := strconv.Atoi(f)
	if err != nil || v < 0 || v >= maxID {
		return 0, fmt.Errorf("bad ID %q", f)
	}
	return v, nil
}

// parseInts parses a space-separated list of IDs.
func parseInts(line string) ([]int, error) {
	if line == "" {
		return nil, nil
	}
	fields := strings.Fields(line)
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := parseID(f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ContextSet is a set of observed call contexts. A context is the
// acyclic path of call-site instruction IDs from a thread root to a
// function activation (recursive re-entries do not extend the path,
// mirroring how the context-sensitive analyses collapse recursion).
//
// The empty path (a thread running its root function) is always a
// member once added.
type ContextSet struct {
	set map[string][]int
}

// NewContextSet returns an empty set.
func NewContextSet() *ContextSet { return &ContextSet{set: map[string][]int{}} }

// key renders a path canonically.
func key(path []int) string {
	var b strings.Builder
	for i, x := range path {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// Add inserts a context path (copied).
func (cs *ContextSet) Add(path []int) {
	k := key(path)
	if _, ok := cs.set[k]; !ok {
		cs.set[k] = append([]int(nil), path...)
	}
}

// Has reports exact membership.
func (cs *ContextSet) Has(path []int) bool {
	_, ok := cs.set[key(path)]
	return ok
}

// Len returns the number of contexts.
func (cs *ContextSet) Len() int { return len(cs.set) }

// UnionWith adds all contexts of o and reports whether any was new.
func (cs *ContextSet) UnionWith(o *ContextSet) bool {
	changed := false
	for k, p := range o.set {
		if _, ok := cs.set[k]; !ok {
			cs.set[k] = p
			changed = true
		}
	}
	return changed
}

// Equal reports set equality.
func (cs *ContextSet) Equal(o *ContextSet) bool {
	if len(cs.set) != len(o.set) {
		return false
	}
	for k := range cs.set {
		if _, ok := o.set[k]; !ok {
			return false
		}
	}
	return true
}

// Clone returns a copy.
func (cs *ContextSet) Clone() *ContextSet {
	c := NewContextSet()
	c.UnionWith(cs)
	return c
}

// SortedPaths returns the contexts in a deterministic order.
func (cs *ContextSet) SortedPaths() [][]int {
	keys := make([]string, 0, len(cs.set))
	for k := range cs.set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]int, len(keys))
	for i, k := range keys {
		out[i] = cs.set[k]
	}
	return out
}
