package mhp

import (
	"bytes"
	"testing"

	"oha/internal/ctxs"
	"oha/internal/lang"
	"oha/internal/pointsto"
	"oha/internal/profile"
)

const portableSrc = `
	global g = 0;
	func work(n) { var i = 0; while (i < n) { g = g + 1; i = i + 1; } }
	func main() {
		var t = spawn work(3);
		var u = spawn work(2);
		work(1);
		join(t);
		join(u);
		print(g);
	}
`

// TestPortableRoundTrip requires a decoded MHP result to agree with the
// original on every MHP verdict, and its
// re-encoding to be byte-identical.
func TestPortableRoundTrip(t *testing.T) {
	prog := lang.MustCompile(portableSrc)
	db, err := profile.Run(prog, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pointsto.Analyze(prog, ctxs.NewCI(prog), db)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		pred bool
	}{{"sound", false}, {"predicated", true}} {
		d := db
		if !variant.pred {
			d = nil
		}
		r := Analyze(prog, pt, d)
		blob, err := r.Encode()
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		dec, err := DecodeResult(prog, blob)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		if dec.NumRoots() != r.NumRoots() {
			t.Fatalf("%s: roots %d, want %d", variant.name, dec.NumRoots(), r.NumRoots())
		}
		for _, a := range prog.Instrs {
			for _, b := range prog.Instrs {
				if dec.MHP(a, b) != r.MHP(a, b) {
					t.Fatalf("%s: MHP(%d,%d) diverged", variant.name, a.ID, b.ID)
				}
			}
		}
		blob2, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("%s: re-encode is not byte-identical", variant.name)
		}
	}
}

// TestPortableRejects checks malformed wire data fails decode.
func TestPortableRejects(t *testing.T) {
	prog := lang.MustCompile(portableSrc)
	pt, err := pointsto.Analyze(prog, ctxs.NewCI(prog), nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Analyze(prog, pt, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(prog, blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob decoded")
	}
	other := lang.MustCompile(`func main() { print(1); }`)
	if _, err := DecodeResult(other, blob); err == nil {
		t.Fatal("blob decoded against a different program")
	}
}
