package artifacts_test

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"oha/internal/artifacts"
	"oha/internal/ctxs"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/lang"
	"oha/internal/mhp"
	"oha/internal/pointsto"
	"oha/internal/profile"
	"oha/internal/staticrace"
)

const diskSrc = `
	global g = 0;
	global m = 0;
	func bump() { lock(&m); g = g + 1; unlock(&m); }
	func main() {
		var t = spawn bump();
		bump();
		join(t);
		print(g);
	}
`

// TestCompiledDiskTier checks KindCompiled artifacts round-trip
// through the disk tier as raw .ohc files: a second cache over the
// same directory serves the image from disk with zero compute misses.
func TestCompiledDiskTier(t *testing.T) {
	prog := lang.MustCompile(diskSrc)
	dir := t.TempDir()
	key := artifacts.Key(artifacts.KindCompiled, prog, "masks")
	codec := artifacts.CompiledCodec(prog)

	c1 := artifacts.New(dir)
	v, err := c1.Memo(key, codec, func() (any, error) {
		return interp.Compile(prog, interp.Masks{}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	code := v.(*interp.Code)

	// The on-disk file must be a bare .ohc image.
	path := filepath.Join(dir, key[:2], key+".ohc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no raw .ohc file on disk: %v", err)
	}
	if _, err := interp.DecodeImage(prog, data); err != nil {
		t.Fatalf("disk file is not a valid image: %v", err)
	}

	c2 := artifacts.New(dir)
	v2, err := c2.Memo(key, codec, func() (any, error) {
		t.Fatal("restart recompiled despite warm disk tier")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v2.(*interp.Code).ConfigDigest() != code.ConfigDigest() {
		t.Fatal("restored image has a different config digest")
	}
	st := c2.Stats()
	if st.Misses != 0 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 0 misses / 1 disk hit", st)
	}
}

// TestCompiledDiskTierOldVersionMisses checks that a disk image in an
// older format version is a cache miss: a restarted cache recompiles
// instead of serving it, and the recompiled image replaces it on disk.
func TestCompiledDiskTierOldVersionMisses(t *testing.T) {
	prog := lang.MustCompile(diskSrc)
	dir := t.TempDir()
	key := artifacts.Key(artifacts.KindCompiled, prog, "masks")
	codec := artifacts.CompiledCodec(prog)
	compile := func() (any, error) { return interp.Compile(prog, interp.Masks{}), nil }

	if _, err := artifacts.New(dir).Memo(key, codec, compile); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".ohc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[6], data[7] = 2, 0 // the version follows the 6-byte magic
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c := artifacts.New(dir)
	recompiled := false
	v, err := c.Memo(key, codec, func() (any, error) {
		recompiled = true
		return compile()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recompiled {
		t.Fatal("a version-2 image was served from disk")
	}
	if st := c.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 1 miss / 0 disk hits", st)
	}
	want := interp.Compile(prog, interp.Masks{}).EncodeImage()
	if got := v.(*interp.Code).EncodeImage(); string(got) != string(want) {
		t.Fatal("recompiled image differs from a fresh compile")
	}
	if data, err = os.ReadFile(path); err != nil || string(data) != string(want) {
		t.Fatalf("disk tier still holds the stale image (err %v)", err)
	}
}

// TestSolverDiskTier checks the points-to / mhp / race codecs through
// the disk tier: a fresh cache over the same directory serves every
// solver artifact from disk without computing it.
func TestSolverDiskTier(t *testing.T) {
	prog := lang.MustCompile(diskSrc)
	db, err := profile.Run(prog, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pointsto.Analyze(prog, ctxs.NewCI(prog), db)
	if err != nil {
		t.Fatal(err)
	}
	m := mhp.Analyze(prog, pt, db)
	race := staticrace.Analyze(prog, pt, m, db)

	dir := t.TempDir()
	c1 := artifacts.New(dir)
	store := func(kind string, codec artifacts.Codec, v any) string {
		key := artifacts.Key(kind, prog, db.Digest())
		if _, err := c1.Memo(key, codec, func() (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
		return key
	}
	ptKey := store(artifacts.KindPointsTo, artifacts.PointsToCodec(prog, pointsto.FactsOf(db)), pt)
	mhpKey := store(artifacts.KindMHP, artifacts.MHPCodec(prog), m)
	raceKey := store(artifacts.KindStaticRace, artifacts.RaceCodec(prog), race)

	c2 := artifacts.New(dir)
	load := func(key string, codec artifacts.Codec) any {
		t.Helper()
		v, err := c2.Memo(key, codec, func() (any, error) {
			t.Fatalf("artifact %s computed instead of restored from disk", key)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	load(ptKey, artifacts.PointsToCodec(prog, pointsto.FactsOf(db)))
	load(mhpKey, artifacts.MHPCodec(prog))
	v := load(raceKey, artifacts.RaceCodec(prog))
	if got, want := v.(*staticrace.Result).CanonicalDigest(), race.CanonicalDigest(); got != want {
		t.Fatal("restored race result diverged")
	}
	st := c2.Stats()
	if st.Misses != 0 || st.DiskHits != 3 || st.DiskMisses != 0 {
		t.Fatalf("stats = %+v, want 0 misses / 3 disk hits / 0 disk misses", st)
	}
	// The restored values are live in memory: a second Memo hits there.
	load(raceKey, artifacts.RaceCodec(prog))
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 memory hit", st)
	}
}

// TestCSPointsToStaysMemoryOnly checks a context-sensitive points-to
// result is served from memory but never written to disk (its codec
// refuses to marshal).
func TestCSPointsToStaysMemoryOnly(t *testing.T) {
	prog := lang.MustCompile(diskSrc)
	tree := ctxs.NewCS(prog, 1<<10, nil)
	pt, err := pointsto.Analyze(prog, tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c := artifacts.New(dir)
	key := artifacts.Key(artifacts.KindPointsTo, prog, "cs")
	if _, err := c.Memo(key, artifacts.PointsToCodec(prog, nil), func() (any, error) {
		return pt, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, key[:2], key+".gob")); !os.IsNotExist(err) {
		t.Fatal("context-sensitive artifact leaked to disk")
	}
	if _, ok := c.Peek(key); !ok {
		t.Fatal("artifact not in memory")
	}
}

// TestPruneDisk checks age-based, budget-based, and orphan pruning.
func TestPruneDisk(t *testing.T) {
	prog := lang.MustCompile(diskSrc)
	dir := t.TempDir()
	c := artifacts.New(dir)
	var keys []string
	for i := 0; i < 4; i++ {
		key := artifacts.Key(artifacts.KindCompiled, prog, strconv.Itoa(i))
		if _, err := c.Memo(key, artifacts.CompiledCodec(prog), func() (any, error) {
			return interp.Compile(prog, interp.Masks{}), nil
		}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	dbKey := artifacts.Key(artifacts.KindProfileRun, prog)
	if _, err := c.Memo(dbKey, artifacts.DBCodec(), func() (any, error) {
		return invariants.NewDB(), nil
	}); err != nil {
		t.Fatal(err)
	}
	path := func(key, ext string) string { return filepath.Join(dir, key[:2], key+ext) }
	age := func(p string, d time.Duration) {
		old := time.Now().Add(-d)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	// Orphans: a stale temp file and a foreign file.
	orphan1 := filepath.Join(dir, keys[0][:2], "."+keys[0]+".tmp123")
	orphan2 := filepath.Join(dir, "junk.dat")
	for _, p := range []string{orphan1, orphan2} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		age(p, time.Hour)
	}
	// keys[0] is expired; the rest are fresh.
	age(path(keys[0], ".ohc"), 48*time.Hour)

	if n := c.PruneDisk(24*time.Hour, 0); n != 3 {
		t.Fatalf("pruned %d files, want 3 (expired + 2 orphans)", n)
	}
	for _, p := range []string{orphan1, orphan2, path(keys[0], ".ohc")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived pruning", p)
		}
	}
	if _, err := os.Stat(path(dbKey, ".gob")); err != nil {
		t.Fatal("fresh gob artifact was pruned")
	}

	// Byte budget: make keys[1] oldest, then shrink the budget so at
	// least one file must go — oldest first.
	age(path(keys[1], ".ohc"), time.Hour)
	info, err := os.Stat(path(keys[2], ".ohc"))
	if err != nil {
		t.Fatal(err)
	}
	budget := 3*info.Size() + 1 // keeps ~3 of the 4 remaining files
	if n := c.PruneDisk(0, budget); n < 1 {
		t.Fatalf("pruned %d files, want >= 1", n)
	}
	if _, err := os.Stat(path(keys[1], ".ohc")); !os.IsNotExist(err) {
		t.Fatal("oldest file survived budget pruning")
	}
	if c.Stats().DiskPrunes < 4 {
		t.Fatalf("DiskPrunes = %d, want >= 4", c.Stats().DiskPrunes)
	}
}
