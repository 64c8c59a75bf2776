package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
)

// ProgramBackend is the pluggable program state tier. The daemon's
// handlers and jobs speak only this interface, so a node can serve as
// a stateless HTTP frontend over a remote tier (see oha/internal/fleet)
// while a standalone daemon keeps the in-process ProgramStore.
type ProgramBackend interface {
	// Submit compiles source and stores the program under its content
	// address; resubmitting identical IR is idempotent (created=false).
	Submit(source string) (sp *StoredProgram, created bool, err error)
	// Get returns the stored program with the given ID (nil if absent).
	Get(id string) *StoredProgram
	// List returns stored programs in submission order.
	List() []*StoredProgram
	// Len returns the number of stored programs.
	Len() int
}

// InvariantBackend is the pluggable invariant-database state tier:
// a versioned, append-only store of likely-invariant databases with
// the paper's union/intersection merge rules.
type InvariantBackend interface {
	// PutFor appends db as a new version under id, binding it to a
	// program digest (program "": no claim). Conflicting bindings fail
	// with ErrProgramMismatch.
	PutFor(id, program string, db *invariants.DB) (int, error)
	// MergeFor folds db into the latest version under id and appends
	// the result as a new version (see PutFor for the binding).
	MergeFor(id, program string, db *invariants.DB) (int, error)
	// Get returns a clone of version v under id (v <= 0: latest) and
	// the resolved version number; ok is false when absent.
	Get(id string, v int) (db *invariants.DB, version int, ok bool)
	// Versions returns the number of versions stored under id.
	Versions(id string) int
	// ProgramOf returns the program digest bound to id ("" — unbound).
	ProgramOf(id string) string
	// List returns the stored IDs in first-put order.
	List() []string
	// Len returns the number of distinct invariant-DB IDs.
	Len() int
}

// ProgramStore holds compiled MiniLang programs, content-addressed by
// the SHA-256 digest of their IR text. Submitting the same source twice
// compiles once and returns the same ID, so every cached static
// artifact keyed on the program digest stays warm across clients. It is
// the in-process ProgramBackend.
type ProgramStore struct {
	mu    sync.RWMutex
	progs map[string]*StoredProgram
	order []string // insertion order for deterministic listings
}

// StoredProgram is one compiled program plus its submission metadata.
type StoredProgram struct {
	ID      string      `json:"id"`
	Instrs  int         `json:"instrs"`
	Blocks  int         `json:"blocks"`
	Funcs   int         `json:"funcs"`
	Created time.Time   `json:"created"`
	Prog    *ir.Program `json:"-"`
	Source  string      `json:"-"`
}

// NewProgramStore returns an empty store.
func NewProgramStore() *ProgramStore {
	return &ProgramStore{progs: map[string]*StoredProgram{}}
}

// Submit compiles source and stores the program under its content
// address. Resubmitting identical IR is idempotent: the existing entry
// is returned with created=false and no recompilation artifacts are
// lost.
func (s *ProgramStore) Submit(source string) (sp *StoredProgram, created bool, err error) {
	prog, err := lang.Compile(source)
	if err != nil {
		return nil, false, err
	}
	id := prog.Digest()
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.progs[id]; ok {
		return old, false, nil
	}
	sp = &StoredProgram{
		ID:      id,
		Instrs:  len(prog.Instrs),
		Blocks:  len(prog.Blocks),
		Funcs:   len(prog.Funcs),
		Created: time.Now().UTC(),
		Prog:    prog,
		Source:  source,
	}
	s.progs[id] = sp
	s.order = append(s.order, id)
	return sp, true, nil
}

// Get returns the stored program with the given ID (nil if absent).
func (s *ProgramStore) Get(id string) *StoredProgram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.progs[id]
}

// List returns every stored program in submission order.
func (s *ProgramStore) List() []*StoredProgram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*StoredProgram, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.progs[id])
	}
	return out
}

// Len returns the number of stored programs.
func (s *ProgramStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.progs)
}

// InvariantStore is a versioned store of likely-invariant databases.
// Every Put or Merge appends an immutable new version (1-based), so a
// client can pin the exact database a job was predicated on while
// profiling keeps folding new runs in. Databases persist through the
// canonical `invariants` text format: with a non-empty dir every
// version is written to <dir>/<id>/<version>.txt (atomically, via temp
// file + rename), and Open reloads them on daemon start.
type InvariantStore struct {
	dir string

	mu      sync.RWMutex
	entries map[string][]*invariants.DB
	// programs binds an entry to the digest of the program it was
	// profiled from ("" — unbound, legacy). Once bound, every later Put
	// or Merge under the same ID must name the same program: likely
	// invariants are per-program facts, and folding databases from two
	// different programs would silently produce a DB whose block/site
	// IDs mean nothing.
	programs map[string]string
	order    []string
}

// ErrProgramMismatch reports an attempt to store or merge an invariant
// database under an ID bound to a different program digest. The HTTP
// layer maps it to 409 Conflict.
var ErrProgramMismatch = errors.New("server: invariant DB bound to a different program digest")

// idOK reports whether an invariant-store ID is acceptable: path-safe
// and non-empty (it names a directory when persistence is on).
func idOK(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return !strings.HasPrefix(id, ".") && !strings.Contains(id, "..")
}

// OpenInvariantStore returns a store persisting under dir ("" —
// memory-only), loading any versions a previous process left behind.
// Unparseable version files are skipped: a torn write never poisons a
// warm start.
func OpenInvariantStore(dir string) (*InvariantStore, error) {
	s := &InvariantStore{dir: dir, entries: map[string][]*invariants.DB{}, programs: map[string]string{}}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ids, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ids {
		if !ent.IsDir() || !idOK(ent.Name()) {
			continue
		}
		id := ent.Name()
		files, err := os.ReadDir(filepath.Join(dir, id))
		if err != nil {
			continue
		}
		type ver struct {
			n  int
			db *invariants.DB
		}
		var vers []ver
		for _, f := range files {
			name := f.Name()
			if !strings.HasSuffix(name, ".txt") {
				continue
			}
			n, err := strconv.Atoi(strings.TrimSuffix(name, ".txt"))
			if err != nil || n < 1 {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, id, name))
			if err != nil {
				continue
			}
			db, err := invariants.Parse(bytes.NewReader(data))
			if err != nil {
				continue
			}
			vers = append(vers, ver{n: n, db: db})
		}
		if len(vers) == 0 {
			continue
		}
		sort.Slice(vers, func(i, j int) bool { return vers[i].n < vers[j].n })
		// Keep the contiguous prefix 1..k: a gap means lost history, and
		// version numbers must stay dense for the append-only contract.
		var dbs []*invariants.DB
		for i, v := range vers {
			if v.n != i+1 {
				break
			}
			dbs = append(dbs, v.db)
		}
		if len(dbs) > 0 {
			s.entries[id] = dbs
			s.order = append(s.order, id)
			if data, err := os.ReadFile(filepath.Join(dir, id, "program.txt")); err == nil {
				if p := strings.TrimSpace(string(data)); p != "" {
					s.programs[id] = p
				}
			}
		}
	}
	sort.Strings(s.order)
	return s, nil
}

// Put appends db as a new version under id and returns the version
// number. The store keeps its own clone; callers may mutate db after.
func (s *InvariantStore) Put(id string, db *invariants.DB) (int, error) {
	return s.PutFor(id, "", db)
}

// PutFor is Put with a program-digest binding: a non-empty program
// binds id to that digest on first use, and conflicts with an existing
// different binding as ErrProgramMismatch.
func (s *InvariantStore) PutFor(id, program string, db *invariants.DB) (int, error) {
	if !idOK(id) {
		return 0, fmt.Errorf("server: invalid invariant-store id %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bindLocked(id, program); err != nil {
		return 0, err
	}
	return s.putLocked(id, db.Clone())
}

// Merge folds db into the latest version under id (or starts the entry
// if absent) and appends the result as a new version, applying the
// paper's per-kind union/intersection merge rules.
func (s *InvariantStore) Merge(id string, db *invariants.DB) (int, error) {
	return s.MergeFor(id, "", db)
}

// MergeFor is Merge with a program-digest binding (see PutFor). The
// binding check runs BEFORE the merge: databases profiled from
// different programs never fold together.
func (s *InvariantStore) MergeFor(id, program string, db *invariants.DB) (int, error) {
	if !idOK(id) {
		return 0, fmt.Errorf("server: invalid invariant-store id %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bindLocked(id, program); err != nil {
		return 0, err
	}
	merged := db.Clone()
	if vers := s.entries[id]; len(vers) > 0 {
		merged = vers[len(vers)-1].Clone()
		merged.MergeInto(db)
	}
	return s.putLocked(id, merged)
}

// ProgramOf returns the program digest bound to id ("" — unbound).
func (s *InvariantStore) ProgramOf(id string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.programs[id]
}

// bindLocked enforces (and on first use records) the program-digest
// binding for id; the caller holds s.mu. program "" means "no claim"
// and always passes, preserving the pre-binding API.
func (s *InvariantStore) bindLocked(id, program string) error {
	if program == "" {
		return nil
	}
	switch bound := s.programs[id]; bound {
	case "", program:
	default:
		return fmt.Errorf("%w: %q is bound to program %s, not %s",
			ErrProgramMismatch, id, shortID(bound), shortID(program))
	}
	if s.programs[id] == "" {
		s.programs[id] = program
		if s.dir != "" {
			dir := filepath.Join(s.dir, id)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, "program.txt"), []byte(program+"\n"), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// putLocked appends an owned database; the caller holds s.mu.
func (s *InvariantStore) putLocked(id string, db *invariants.DB) (int, error) {
	if _, ok := s.entries[id]; !ok {
		s.order = append(s.order, id)
	}
	s.entries[id] = append(s.entries[id], db)
	version := len(s.entries[id])
	if s.dir != "" {
		if err := s.persist(id, version, db); err != nil {
			return version, fmt.Errorf("server: persist %s/%d: %w", id, version, err)
		}
	}
	return version, nil
}

// persist writes one version atomically (temp file + rename).
func (s *InvariantStore) persist(id string, version int, db *invariants.DB) error {
	dir := filepath.Join(s.dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".v*.tmp")
	if err != nil {
		return err
	}
	if _, err := db.WriteTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	path := filepath.Join(dir, strconv.Itoa(version)+".txt")
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Get returns a clone of version v under id (v <= 0: latest) and the
// resolved version number; ok is false when absent.
func (s *InvariantStore) Get(id string, v int) (db *invariants.DB, version int, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vers := s.entries[id]
	if len(vers) == 0 {
		return nil, 0, false
	}
	if v <= 0 {
		v = len(vers)
	}
	if v > len(vers) {
		return nil, 0, false
	}
	return vers[v-1].Clone(), v, true
}

// Versions returns the number of versions stored under id (0: absent).
func (s *InvariantStore) Versions(id string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries[id])
}

// List returns the stored IDs in first-put order.
func (s *InvariantStore) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// Len returns the number of distinct invariant-DB IDs.
func (s *InvariantStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// The in-process stores are the default backends.
var (
	_ ProgramBackend   = (*ProgramStore)(nil)
	_ InvariantBackend = (*InvariantStore)(nil)
)
