package interp

import (
	"errors"
	"strings"
	"testing"

	"oha/internal/lang"
)

// memEvProg fuses instrumented loads and stores under a partial Mem
// mask: its loop body is one straight-line block of loads, stores and
// arithmetic.
const memEvProg = `
	global a = 0;
	global b = 0;
	global c = 0;
	func main() {
		var i = 0;
		while (i < 8) {
			a = a + i;
			b = b + a;
			c = c + b * 2;
			i = i + 1;
		}
		print(a + b + c);
	}
`

// memEvImage compiles memEvProg with every other site's Mem event on,
// so its fused runs hold both event and event-free loads and stores.
func memEvImage(t *testing.T) *Code {
	t.Helper()
	prog, err := lang.Compile(memEvProg)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]bool, len(prog.Instrs))
	for i := range mem {
		mem[i] = i%2 == 0
	}
	code := Compile(prog, Masks{Mem: mem})
	ev, plain := 0, 0
	for pc := range code.code {
		if ci := &code.code[pc]; ci.op == cRun {
			switch ci.run[0].op {
			case mLoadEv, mStoreEv:
				ev++
			case mLoad, mStore:
				plain++
			}
		}
	}
	if ev == 0 || plain == 0 {
		t.Fatalf("image fuses %d event and %d event-free memory heads, want both", ev, plain)
	}
	return code
}

// TestFusedHeadFlagsMatchMicroOps checks that fused heads keep their
// event flags, which agree with their micro ops: fMemEv exactly on
// heads whose micro op delivers the Mem event.
func TestFusedHeadFlagsMatchMicroOps(t *testing.T) {
	code := memEvImage(t)
	for pc := range code.code {
		ci := &code.code[pc]
		if ci.op != cRun {
			continue
		}
		if want := headFlags(ci.run[0].op); ci.flags != want {
			t.Errorf("pc %d: head flags %#x, micro op %s wants %#x", pc, ci.flags, microName(ci.run[0].op), want)
		}
	}
}

// TestDecodeImageRejectsHeadFlagMismatch flips each fused head's flags
// away from what its micro op implies — the Mem event dropped or added,
// or a flag no fused component may carry — and requires the decoder to
// reject every such image.
func TestDecodeImageRejectsHeadFlagMismatch(t *testing.T) {
	code := memEvImage(t)
	heads := 0
	for pc := range code.code {
		ci := &code.code[pc]
		if ci.op != cRun {
			continue
		}
		heads++
		orig := ci.flags
		for _, bad := range []uint8{orig ^ fMemEv, orig | fExecEv, orig | fNullEv} {
			ci.flags = bad
			_, err := DecodeImage(code.prog, code.EncodeImage())
			if !errors.Is(err, ErrImage) || !strings.Contains(err.Error(), "fused head carries flags") {
				t.Errorf("pc %d: head flags %#x over micro op %s: err = %v", pc, bad, microName(ci.run[0].op), err)
			}
		}
		ci.flags = orig
	}
	if heads == 0 {
		t.Fatal("no fused heads")
	}
	if _, err := DecodeImage(code.prog, code.EncodeImage()); err != nil {
		t.Fatalf("restored image: %v", err)
	}
}

// TestDecodeImageRejectsVersion2 checks that an image carrying the
// previous format version — whose fused runs could end in a raw
// instrumented load or store — decodes as a version error, which the
// artifact cache treats as a miss, never as an image.
func TestDecodeImageRejectsVersion2(t *testing.T) {
	code := memEvImage(t)
	img := code.EncodeImage()
	img[len(imageMagic)] = 2
	img[len(imageMagic)+1] = 0
	_, err := DecodeImage(code.prog, img)
	if !errors.Is(err, ErrImage) || !strings.Contains(err.Error(), "image version 2") {
		t.Fatalf("v2 image: err = %v", err)
	}
}
