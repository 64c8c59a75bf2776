package core

import (
	"testing"

	"oha/internal/artifacts"
	"oha/internal/interp"
	"oha/internal/lang"
)

const compiledKeyProg = `
	global a = 0;
	global ftab[2];
	func f0(x) { return x + 1; }
	func f1(x) { return x + 2; }
	func main() {
		ftab[0] = f0;
		ftab[1] = f1;
		var k = input(0);
		var i = 0;
		while (i < 10) {
			var h = ftab[(i & k) & 1];
			a = a + h(i);
			i = i + 1;
		}
		print(a);
	}
`

// TestCompiledImageKeyedByCallees checks the compiled-image cache key
// covers the inline-cache seeds: two databases differing only in an
// indirect site's callee set must yield distinct images from one
// shared cache — a stale image compiled under the old seeds must never
// be served for a refined database.
func TestCompiledImageKeyedByCallees(t *testing.T) {
	prog := lang.MustCompile(compiledKeyProg)
	pr, err := Profile(prog, func(run int) Execution {
		return Execution{Inputs: []int64{0}, Seed: uint64(run + 1)}
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.DB.Callees) == 0 {
		t.Fatal("profile learned no callee sets")
	}

	var m interp.Masks
	cache := artifacts.New("")
	img1 := compiledCode(prog, m, compileOpts(pr.DB, StaticConfig{}), cache).code
	if img1.ICSites() == 0 {
		t.Fatal("seeded image has no inline caches")
	}

	// Refine: widen one site's callee set, as the adapt layer does.
	db2 := pr.DB.Clone()
	for site := range db2.Callees {
		if !db2.WidenCallees(site, 1) {
			t.Fatalf("widening site %d changed nothing", site)
		}
		break
	}
	img2 := compiledCode(prog, m, compileOpts(db2, StaticConfig{}), cache).code
	if img1.ConfigDigest() == img2.ConfigDigest() {
		t.Fatal("images for different callee sets share a config digest")
	}
	if img1 == img2 {
		t.Fatal("cache served a stale image for a refined callee set")
	}

	// Same database again: the cache must reuse the first image, not
	// recompile (memoization is still effective under the new key
	// scheme).
	before := cache.Stats()
	img3 := compiledCode(prog, m, compileOpts(pr.DB, StaticConfig{}), cache).code
	if img3 != img1 {
		t.Fatal("identical configuration did not reuse the cached image")
	}
	after := cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("reuse stats: before %+v after %+v, want one hit and no miss", before, after)
	}

	// The debug toggles are part of the key too: a NoIC image must not
	// alias the seeded one, and must digest identically to a never-
	// seeded compile (the normalized-options property).
	imgNoIC := compiledCode(prog, m, compileOpts(pr.DB, StaticConfig{NoIC: true}), cache).code
	if imgNoIC == img1 || imgNoIC.ICSites() != 0 {
		t.Fatalf("NoIC image aliased the seeded one (%d IC sites)", imgNoIC.ICSites())
	}
	imgBare := compiledCode(prog, m, compileOpts(nil, StaticConfig{}), cache).code
	if imgBare.ConfigDigest() != imgNoIC.ConfigDigest() {
		t.Fatal("NoIC and seedless images should digest identically")
	}
	imgNoFuse := compiledCode(prog, m, compileOpts(pr.DB, StaticConfig{NoFusion: true}), cache).code
	if imgNoFuse == img1 || imgNoFuse.FusedInstrs() != 0 {
		t.Fatalf("NoFusion image aliased the fused one (%d fused)", imgNoFuse.FusedInstrs())
	}
}
