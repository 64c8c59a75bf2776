package artifacts_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oha/internal/artifacts"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/profile"
)

const prog = `
	global g = 0;
	func f(x) { g = g + x; return g; }
	func main() {
		var i = 0;
		while (i < 4) { i = i + 1; f(i); }
		print(g);
	}
`

func TestMemoMemoryLayer(t *testing.T) {
	c := artifacts.New("")
	var computes atomic.Int32
	compute := func() (any, error) {
		computes.Add(1)
		return 42, nil
	}
	for i := 0; i < 3; i++ {
		v, err := c.Memo("k", nil, compute)
		if err != nil || v.(int) != 42 {
			t.Fatalf("Memo = %v, %v", v, err)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.DiskHits != 0 || st.Lookups() != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMemoNilCacheComputesEveryTime(t *testing.T) {
	var c *artifacts.Cache
	n := 0
	for i := 0; i < 2; i++ {
		v, err := c.Memo("k", nil, func() (any, error) { n++; return n, nil })
		if err != nil || v.(int) != i+1 {
			t.Fatalf("Memo = %v, %v", v, err)
		}
	}
	if c.Stats() != (artifacts.Stats{}) {
		t.Error("nil cache reported state")
	}
}

func TestMemoSingleflight(t *testing.T) {
	c := artifacts.New("")
	var computes atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Memo("shared", nil, func() (any, error) {
				computes.Add(1)
				return "artifact", nil
			})
			if err != nil || v.(string) != "artifact" {
				t.Errorf("Memo = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("concurrent lookups computed %d times, want 1", n)
	}
}

func TestMemoErrorsNotCached(t *testing.T) {
	c := artifacts.New("")
	boom := errors.New("boom")
	fail := true
	compute := func() (any, error) {
		if fail {
			return nil, boom
		}
		return "ok", nil
	}
	if _, err := c.Memo("k", nil, compute); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	fail = false
	v, err := c.Memo("k", nil, compute)
	if err != nil || v.(string) != "ok" {
		t.Fatalf("retry after error: %v, %v", v, err)
	}
}

func TestDBDiskRoundtrip(t *testing.T) {
	p := lang.MustCompile(prog)
	want, err := profile.Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	key := artifacts.ExecKey(p, nil, 1)

	c1 := artifacts.New(dir)
	if _, err := c1.Memo(key, artifacts.DBCodec(), func() (any, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.Misses != 1 {
		t.Fatalf("stats after store = %+v", st)
	}

	// A fresh cache over the same directory must load from disk and
	// never invoke compute.
	c2 := artifacts.New(dir)
	v, err := c2.Memo(key, artifacts.DBCodec(), func() (any, error) {
		t.Fatal("compute ran despite disk entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.(*invariants.DB).Equal(want) {
		t.Error("disk roundtrip changed the database")
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("stats after load = %+v", st)
	}
}

func TestKeysDiscriminate(t *testing.T) {
	p := lang.MustCompile(prog)
	db, err := profile.Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	add := func(label, k string) {
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision: %s vs %s", prev, label)
		}
		keys[k] = label
	}
	pred := db.Digest()
	add("pt/sound", artifacts.Key(artifacts.KindPointsTo, p, "sound", "8"))
	add("pt/pred", artifacts.Key(artifacts.KindPointsTo, p, pred, "8"))
	add("pt/pred/16", artifacts.Key(artifacts.KindPointsTo, p, pred, "16"))
	add("pt/pred/extra", artifacts.Key(artifacts.KindPointsTo, p, pred, "8", "restrict"))
	add("pt/pred/none", artifacts.Key(artifacts.KindPointsTo, p, pred))
	add("mhp/pred", artifacts.Key(artifacts.KindMHP, p, pred, "8"))
	add("exec/1", artifacts.ExecKey(p, nil, 1))
	add("exec/2", artifacts.ExecKey(p, nil, 2))
	add("exec/in", artifacts.ExecKey(p, []int64{7}, 1))

	// Stability: identical provenance yields identical keys.
	if artifacts.Key(artifacts.KindPointsTo, p, pred, "8") != keys0(t, keys, "pt/pred") {
		t.Error("key not stable across calls")
	}
}

// keys0 finds the key mapped to a label (reverse lookup helper).
func keys0(t *testing.T, keys map[string]string, label string) string {
	t.Helper()
	for k, l := range keys {
		if l == label {
			return k
		}
	}
	t.Fatalf("label %s not recorded", label)
	return ""
}

// TestDiskCorruptionRecovery: a corrupted on-disk envelope (torn
// write, bit rot) must never fail a lookup — the cache recomputes and
// overwrites the bad file with a good one.
func TestDiskCorruptionRecovery(t *testing.T) {
	p := lang.MustCompile(prog)
	want, err := profile.Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	key := artifacts.ExecKey(p, nil, 1)

	c1 := artifacts.New(dir)
	if _, err := c1.Memo(key, artifacts.DBCodec(), func() (any, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// Clobber the stored envelope with garbage.
	path := filepath.Join(dir, key[:2], key+".gob")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := artifacts.New(dir)
	recomputed := false
	v, err := c2.Memo(key, artifacts.DBCodec(), func() (any, error) {
		recomputed = true
		return want, nil
	})
	if err != nil {
		t.Fatalf("lookup over corrupt file: %v", err)
	}
	if !recomputed {
		t.Fatal("corrupt disk entry was served instead of recomputed")
	}
	if !v.(*invariants.DB).Equal(want) {
		t.Fatal("recomputed value wrong")
	}

	// The recompute healed the disk layer: a third cache disk-hits.
	c3 := artifacts.New(dir)
	v, err = c3.Memo(key, artifacts.DBCodec(), func() (any, error) {
		t.Fatal("compute ran despite healed disk entry")
		return nil, nil
	})
	if err != nil || !v.(*invariants.DB).Equal(want) {
		t.Fatalf("healed entry = %v, %v", v, err)
	}
}

// TestDiskWritesAtomic: stores go through a temp file + rename, so
// the cache directory never holds partially written envelopes — and
// no temp litter survives, even under concurrent stores of the same
// artifact.
func TestDiskWritesAtomic(t *testing.T) {
	p := lang.MustCompile(prog)
	db, err := profile.Run(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	key := artifacts.ExecKey(p, nil, 1)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Fresh cache per goroutine: each misses memory and races
			// the others on the disk store.
			c := artifacts.New(dir)
			if _, err := c.Memo(key, artifacts.DBCodec(), func() (any, error) { return db, nil }); err != nil {
				t.Errorf("Memo: %v", err)
			}
		}()
	}
	wg.Wait()

	var files, temps int
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(path, ".gob") {
			files++
		} else {
			temps++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files != 1 || temps != 0 {
		t.Fatalf("disk layer holds %d envelopes and %d temp files, want 1 and 0", files, temps)
	}

	// And the surviving envelope is valid.
	c := artifacts.New(dir)
	v, err := c.Memo(key, artifacts.DBCodec(), func() (any, error) {
		t.Fatal("compute ran despite stored entry")
		return nil, nil
	})
	if err != nil || !v.(*invariants.DB).Equal(db) {
		t.Fatalf("surviving envelope = %v, %v", v, err)
	}
}

func TestBoundEvictsLRU(t *testing.T) {
	c := artifacts.New("").Bound(2, 0)
	mk := func(k string) {
		t.Helper()
		if _, err := c.Memo(k, nil, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	mk("a") // refresh a: b is now the LRU victim
	mk("c") // evicts b
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("evicted entry b still peekable")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("recently-used entry a was evicted")
	}
	// Re-requesting an evicted key recomputes (a fresh miss).
	before := c.Stats().Misses
	mk("b")
	if got := c.Stats().Misses; got != before+1 {
		t.Fatalf("misses after re-request = %d, want %d", got, before+1)
	}
	if n := c.Entries(); n > 2 {
		t.Fatalf("entries = %d, want <= 2", n)
	}
}

func TestBoundByteCap(t *testing.T) {
	// Each string entry costs len+64; cap to fit roughly two entries.
	c := artifacts.New("").Bound(0, 300)
	for _, k := range []string{"k1", "k2", "k3", "k4"} {
		k := k
		if _, err := c.Memo(k, nil, func() (any, error) { return strings.Repeat("x", 64), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("byte cap never evicted")
	}
	if n := c.Entries(); n > 2 {
		t.Fatalf("entries = %d, want <= 2 under the byte cap", n)
	}
	if _, ok := c.Peek("k4"); !ok {
		t.Fatal("most recent entry was evicted")
	}
}

func TestBoundEvictedEntryFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	c := artifacts.New(dir).Bound(1, 0)
	db := invariants.NewDB()
	db.MarkVisited(3)
	if _, err := c.Memo("dbkey", artifacts.DBCodec(), func() (any, error) { return db, nil }); err != nil {
		t.Fatal(err)
	}
	// Pushing a second entry evicts the first from memory…
	if _, err := c.Memo("other", nil, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no eviction under entry cap 1")
	}
	// …but the portable artifact comes back from the disk layer.
	v, err := c.Memo("dbkey", artifacts.DBCodec(), func() (any, error) {
		t.Fatal("recompute despite disk layer")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.(*invariants.DB).Equal(db) {
		t.Fatal("disk reload differs from original")
	}
	if st := c.Stats(); st.DiskHits == 0 {
		t.Fatalf("stats = %+v, want a disk hit", st)
	}
}

func TestBoundConcurrentMemo(t *testing.T) {
	c := artifacts.New("").Bound(8, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := string(rune('a' + (g+i)%16))
				if _, err := c.Memo(k, nil, func() (any, error) { return k, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Entries(); n > 8 {
		t.Fatalf("entries = %d, want <= 8", n)
	}
}

// TestDigestDoesNotPinProgram checks that keying an artifact by a
// program leaves the program collectable once its last reference
// drops: the digest memo lives on the program, not in a global table.
func TestDigestDoesNotPinProgram(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p := lang.MustCompile(prog)
		artifacts.ExecKey(p, nil, 1)
		runtime.SetFinalizer(p, func(*ir.Program) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a digested program stayed reachable after its last reference dropped")
}
