package pointsto

import (
	"bytes"
	"encoding/gob"
	"testing"

	"oha/internal/ctxs"
	"oha/internal/lang"
	"oha/internal/profile"
)

const portableSrc = `
	global g = 0;
	global m = 0;
	func add(p) { lock(&m); *p = *p + 1; unlock(&m); }
	func twice(p) { add(p); add(p); }
	func main() {
		var h = alloc(2);
		var f = add;
		if (input(0) > 0) { f = twice; }
		var t = spawn f(h);
		f(&g);
		join(t);
		print(*h + g);
	}
`

// TestPortableRoundTrip requires a decoded result to be observationally
// identical (canonical digest, call edges) and its
// re-encoding to be byte-identical — the disk tier depends on encode
// being a pure function of the restored state.
func TestPortableRoundTrip(t *testing.T) {
	prog := lang.MustCompile(portableSrc)
	db, err := profile.Run(prog, []int64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Analyze(prog, ctxs.NewCI(prog), db)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeResult(prog, FactsOf(db), blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.CanonicalDigest(), r.CanonicalDigest(); got != want {
		t.Fatalf("canonical digest diverged:\n got %s\nwant %s", got, want)
	}
	blob2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encode is not byte-identical")
	}
}

// TestPortableRejectsCS checks context-sensitive results refuse to
// serialize (the disk tier is CI-only).
func TestPortableRejectsCS(t *testing.T) {
	prog := lang.MustCompile(portableSrc)
	tree := ctxs.NewCS(prog, 1<<10, nil)
	r, err := Analyze(prog, tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Encode(); err == nil {
		t.Fatal("Encode accepted a context-sensitive result")
	}
}

// TestPortableRejectsCorrupt checks index validation: a wire image with
// out-of-range IDs must fail to decode, and truncation must error.
func TestPortableRejectsCorrupt(t *testing.T) {
	prog := lang.MustCompile(portableSrc)
	r, err := Analyze(prog, ctxs.NewCI(prog), nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(prog, nil, blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob decoded")
	}
	// Rewrite individual wire fields out of range and require rejection.
	corrupt := func(name string, mut func(w *wireAnalysis)) {
		var w wireAnalysis
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
			t.Fatal(err)
		}
		mut(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(prog, nil, buf.Bytes()); err == nil {
			t.Errorf("%s: corrupt blob decoded", name)
		}
	}
	corrupt("seeded instr", func(w *wireAnalysis) { w.Seeded[0] = 1 << 20 })
	corrupt("tree fn", func(w *wireAnalysis) { w.TreeFns = append(w.TreeFns, 99) })
	corrupt("copyTo node", func(w *wireAnalysis) {
		w.CopyTo[0] = append(w.CopyTo[0], w.NNodes+5)
	})
	corrupt("pts object", func(w *wireAnalysis) {
		w.Pts[0] = []uint64{1 << 63}
	})
	corrupt("node tables", func(w *wireAnalysis) { w.Pts = w.Pts[:1] })
	corrupt("funcObj len", func(w *wireAnalysis) { w.FuncObj = nil })
	corrupt("call edge callee", func(w *wireAnalysis) {
		w.CallEdges = append(w.CallEdges, wirePair{0, 99})
	})
}
