// Package artifacts provides a content-addressed cache for the
// expensive products of the static pipeline (points-to, MHP, static
// race, null proof, slicer and static slice), for compiled bytecode
// images, and for per-run profiling invariant databases.
//
// Every entry is keyed by a SHA-256 digest over its kind, the program
// IR and what it was computed from (Key). A static solve's key is the
// digest of the invariant facts its solver reads plus the keys of the
// solves upstream of it, so one key denotes one artifact content, and
// databases that differ only in facts a solve does not read share it.
//
// The cache has two layers:
//
//   - an in-memory layer (always on) holding live artifact values,
//     with singleflight semantics: concurrent lookups of one key
//     compute the artifact once and share it;
//   - an optional on-disk layer (Dir != "") for the kinds with a Codec:
//     profiling databases, context-insensitive points-to, MHP, static
//     race and null-proof results and static slices (gob envelopes),
//     and compiled images (raw .ohc files). Each decodes against the
//     live program, so it survives across processes; slicers stay
//     memory-only.
//
// Cached values are shared: callers must treat them as immutable and
// clone anything they intend to mutate.
package artifacts

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oha/internal/invariants"
	"oha/internal/ir"
)

// Artifact kinds, part of every cache key.
const (
	KindPointsTo   = "pointsto"
	KindMHP        = "mhp"
	KindStaticRace = "staticrace"
	KindSlicer     = "slicer"
	KindSlice      = "staticslice"
	KindProfileRun = "profilerun"
	// KindCompiled keys bytecode images of a program under one set of
	// instrumentation masks (extra discriminator: the mask digest).
	// Portable via CompiledCodec as a raw .ohc image, so a restarted
	// daemon admits its first job with zero compile work.
	KindCompiled = "compiled"
	// KindNullProof keys the OptNull client's static non-nullness
	// results: the discharged-site set proven under one (program,
	// invariant database) pair. Portable via gob (IDs only).
	KindNullProof = "nullproof"
)

// Codec converts an artifact to and from a portable byte payload for
// the on-disk layer. Artifacts without a Codec are cached in memory
// only.
//
// A Codec may additionally implement interface{ Ext() string } to
// choose its on-disk file extension (e.g. ".ohc" for compiled bytecode
// images). Payloads of such codecs are stored raw — the file IS the
// artifact, inspectable with `oha dump` — instead of inside the
// default gob envelope.
type Codec interface {
	Marshal(v any) ([]byte, error)
	Unmarshal(data []byte) (any, error)
}

// codecExt returns a codec's custom file extension, or "" for the
// default gob envelope.
func codecExt(codec Codec) string {
	if e, ok := codec.(interface{ Ext() string }); ok {
		return e.Ext()
	}
	return ""
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits       uint64 // served from the in-memory layer
	DiskHits   uint64 // served from the on-disk layer
	Misses     uint64 // computed (the number of underlying solves)
	Evictions  uint64 // entries dropped by the LRU bound
	DiskMisses uint64 // disk probes that found no usable artifact
	DiskPrunes uint64 // disk files removed by PruneDisk
}

// Lookups returns the total number of cache consultations.
func (s Stats) Lookups() uint64 { return s.Hits + s.DiskHits + s.Misses }

// Cache is a two-layer content-addressed artifact cache. The zero
// value is not usable; construct with New. A nil *Cache is valid and
// disables memoization (every Memo computes).
type Cache struct {
	dir string

	mu      sync.Mutex
	entries map[string]*entry
	// LRU bookkeeping: lru orders COMPLETED entries most-recent-first
	// (in-flight computes are not evictable and not listed), bytes is
	// the estimated memory cost of the listed entries, and the caps are
	// 0 when the cache is unbounded (the default).
	lru        *list.List
	bytes      int64
	maxEntries int
	maxBytes   int64

	hits, diskHits, misses, evictions atomic.Uint64
	diskMisses, diskPrunes            atomic.Uint64
}

// entry is one in-flight or completed artifact computation.
type entry struct {
	key  string
	once sync.Once
	val  any
	err  error
	// done flips to true once the compute finished (success or error);
	// Peek consults it to avoid blocking on an in-flight compute.
	done atomic.Bool
	// elem is the entry's LRU-list node (nil until completed or after
	// eviction); cost its estimated byte footprint. Guarded by Cache.mu.
	elem *list.Element
	cost int64
}

// New returns a cache. dir == "" disables the on-disk layer; otherwise
// gob envelopes are stored under dir (created on first write).
func New(dir string) *Cache {
	return &Cache{dir: dir, entries: map[string]*entry{}, lru: list.New()}
}

// Bound caps the in-memory layer: at most maxEntries live entries and
// maxBytes estimated bytes (either 0: that dimension unbounded). Over
// the cap, the least-recently-used completed entries are dropped; an
// in-flight compute is never evicted. Evicted portable artifacts
// remain on the disk layer and come back as disk hits. Call before
// sharing the cache across goroutines.
func (c *Cache) Bound(maxEntries int, maxBytes int64) *Cache {
	c.maxEntries = maxEntries
	c.maxBytes = maxBytes
	return c
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:       c.hits.Load(),
		DiskHits:   c.diskHits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		DiskMisses: c.diskMisses.Load(),
		DiskPrunes: c.diskPrunes.Load(),
	}
}

// Entries returns the number of live in-memory cache entries
// (completed or in flight).
func (c *Cache) Entries() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Collect reports every cache statistic to fn as (name, value) pairs —
// the export hook metrics registries poll, so the cache package itself
// stays dependency-free.
func (c *Cache) Collect(fn func(name string, value float64)) {
	st := c.Stats()
	fn("hits", float64(st.Hits))
	fn("disk_hits", float64(st.DiskHits))
	fn("misses", float64(st.Misses))
	fn("entries", float64(c.Entries()))
	fn("evictions", float64(st.Evictions))
	fn("disk_misses", float64(st.DiskMisses))
	fn("disk_prunes", float64(st.DiskPrunes))
}

// Memo returns the artifact stored under key, computing and caching it
// on first use. Concurrent calls with one key share a single compute
// (singleflight). codec, when non-nil, enables the on-disk layer for
// this artifact. Errors are not cached: a failed compute clears the
// entry so a later call retries.
func (c *Cache) Memo(key string, codec Codec, compute func() (any, error)) (any, error) {
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &entry{key: key}
		c.entries[key] = e
	}
	c.mu.Unlock()

	first := false
	e.once.Do(func() {
		first = true
		defer e.done.Store(true)
		if codec != nil && c.dir != "" {
			if v, ok := c.loadDisk(key, codec); ok {
				c.diskHits.Add(1)
				e.val = v
				return
			}
			c.diskMisses.Add(1)
		}
		c.misses.Add(1)
		e.val, e.err = compute()
		if e.err == nil && codec != nil && c.dir != "" {
			c.storeDisk(key, codec, e.val)
		}
	})
	if e.err != nil {
		// Do not cache failures; let a later caller retry.
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, e.err
	}
	if first {
		c.admit(e)
	} else {
		c.hits.Add(1)
		c.touch(e)
	}
	return e.val, nil
}

// admit lists a freshly completed entry in the LRU order, accounts its
// cost, and evicts over-cap entries (oldest first). Nothing happens
// while the cache is unbounded except recency bookkeeping.
func (c *Cache) admit(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.key] != e || e.elem != nil {
		return // evicted-and-recomputed race, or already listed
	}
	e.cost = estimateCost(e.val)
	c.bytes += e.cost
	e.elem = c.lru.PushFront(e)
	c.evictLocked()
}

// touch refreshes an entry's recency; the no-op for entries already
// evicted (their value is still served to the caller holding them).
func (c *Cache) touch(e *entry) {
	c.mu.Lock()
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()
}

// evictLocked drops least-recently-used entries until both caps hold;
// the caller holds c.mu. Only completed entries are listed, so an
// in-flight compute can never be evicted.
func (c *Cache) evictLocked() {
	for c.overCap() {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		c.lru.Remove(back)
		e.elem = nil
		c.bytes -= e.cost
		if c.entries[e.key] == e {
			delete(c.entries, e.key)
		}
		c.evictions.Add(1)
	}
}

func (c *Cache) overCap() bool {
	if c.maxEntries > 0 && c.lru.Len() > c.maxEntries {
		return true
	}
	return c.maxBytes > 0 && c.bytes > c.maxBytes
}

// Peek returns the completed in-memory artifact stored under key, if
// any, without computing, waiting on an in-flight compute, or touching
// the hit/miss counters: it asks which artifacts a pipeline has solved
// without solving or counting anything itself.
func (c *Cache) Peek(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok && e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	if !ok || !e.done.Load() || e.err != nil || e.val == nil {
		return nil, false
	}
	return e.val, true
}

// estimateCost approximates an artifact's resident bytes for the LRU
// byte cap. Artifacts that know their footprint implement
// interface{ ArtifactBytes() int64 }; invariant databases are sized
// from their counts; everything else charges a flat default — the
// entry cap is the precise bound, the byte cap a coarse one.
func estimateCost(v any) int64 {
	const defaultCost = 16 << 10
	switch x := v.(type) {
	case interface{ ArtifactBytes() int64 }:
		if n := x.ArtifactBytes(); n > 0 {
			return n
		}
		return defaultCost
	case *invariants.DB:
		c := x.Count()
		return int64(c.VisitedBlocks+c.MustAliasPairs+c.SingletonSpawns+
			c.ElidableLocks+c.CalleeSites+c.CalleeTargets+c.Contexts+
			c.NonNullLoads)*16 + 256
	case []byte:
		return int64(len(x)) + 64
	case string:
		return int64(len(x)) + 64
	default:
		return defaultCost
	}
}

// envelope is the on-disk gob record.
type envelope struct {
	Key     string
	Payload []byte
}

func (c *Cache) diskPath(key string, codec Codec) string {
	ext := codecExt(codec)
	if ext == "" {
		ext = ".gob"
	}
	return filepath.Join(c.dir, key[:2], key+ext)
}

func (c *Cache) loadDisk(key string, codec Codec) (any, bool) {
	data, err := os.ReadFile(c.diskPath(key, codec))
	if err != nil {
		return nil, false
	}
	if codecExt(codec) == "" {
		// Default gob envelope: verify the embedded key.
		var env envelope
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil || env.Key != key {
			return nil, false
		}
		data = env.Payload
	}
	v, err := codec.Unmarshal(data)
	if err != nil {
		return nil, false
	}
	return v, true
}

// storeDisk writes the artifact atomically (temp file + rename);
// failures are ignored — the disk layer is a best-effort accelerator.
// Ext codecs store the raw payload; others go in a gob envelope.
func (c *Cache) storeDisk(key string, codec Codec, v any) {
	payload, err := codec.Marshal(v)
	if err != nil {
		return
	}
	if codecExt(codec) == "" {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(envelope{Key: key, Payload: payload}); err != nil {
			return
		}
		payload = buf.Bytes()
	}
	path := c.diskPath(key, codec)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// pruneFile is one disk-layer artifact considered by PruneDisk.
type pruneFile struct {
	path  string
	mtime time.Time
	size  int64
}

// artifactFile matches <64-hex-key>.gob or .ohc; anything else in the
// cache directory is an orphan.
var artifactFile = regexp.MustCompile(`^[0-9a-f]{64}\.(gob|ohc)$`)

// PruneDisk garbage-collects the on-disk layer: orphans (stale temp
// files and unrecognized names), artifacts older than maxAge (0: no
// age bound), and — oldest first — enough artifacts to fit maxBytes
// (0: no byte bound). Returns the number of files removed. In-memory
// entries are untouched: a pruned artifact that is still live in
// memory simply stops being restartable.
func (c *Cache) PruneDisk(maxAge time.Duration, maxBytes int64) int {
	if c == nil || c.dir == "" {
		return 0
	}
	now := time.Now()
	var keep []pruneFile
	removed := 0
	remove := func(path string) {
		if os.Remove(path) == nil {
			removed++
			c.diskPrunes.Add(1)
		}
	}
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		name := d.Name()
		if !artifactFile.MatchString(name) {
			// Orphan: a crashed writer's temp file or foreign junk.
			// Grace-period recent temp files — a concurrent storeDisk
			// may be mid-write.
			if now.Sub(info.ModTime()) > time.Minute {
				remove(path)
			}
			return nil
		}
		if maxAge > 0 && now.Sub(info.ModTime()) > maxAge {
			remove(path)
			return nil
		}
		keep = append(keep, pruneFile{path: path, mtime: info.ModTime(), size: info.Size()})
		return nil
	})
	if maxBytes > 0 {
		var total int64
		for _, f := range keep {
			total += f.size
		}
		sort.Slice(keep, func(i, j int) bool { return keep[i].mtime.Before(keep[j].mtime) })
		for _, f := range keep {
			if total <= maxBytes {
				break
			}
			remove(f.path)
			total -= f.size
		}
	}
	return removed
}

// ---------------------------------------------------------------- keys

// Key builds the content-addressed cache key for an artifact of prog:
// hash(kind, program IR, parts). A static solve's parts are its
// solver's projection digest and the keys of the solves upstream of it
// (core.StaticKeysOf).
func Key(kind string, prog *ir.Program, parts ...string) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(prog.Digest()))
	for _, x := range parts {
		h.Write([]byte{0})
		h.Write([]byte(x))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ExecKey builds the cache key for one profiling execution's invariant
// database: hash(program IR, inputs, seed).
func ExecKey(prog *ir.Program, inputs []int64, seed uint64) string {
	h := sha256.New()
	h.Write([]byte(KindProfileRun))
	h.Write([]byte{0})
	h.Write([]byte(prog.Digest()))
	var buf [8]byte
	for _, v := range inputs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// -------------------------------------------------------------- codecs

// dbCodec persists invariant databases via their canonical text format
// (the same format the paper's tools exchange between phases).
type dbCodec struct{}

func (dbCodec) Marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := v.(*invariants.DB).WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (dbCodec) Unmarshal(data []byte) (any, error) {
	return invariants.Parse(bytes.NewReader(data))
}

// DBCodec returns the on-disk codec for *invariants.DB artifacts.
func DBCodec() Codec { return dbCodec{} }
