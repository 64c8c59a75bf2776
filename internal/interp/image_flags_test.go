package interp

import (
	"errors"
	"fmt"
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

// execImage compiles memEvProg with every other site's Exec event on
// and every block's BlockEnter, as a slicer's image would be, so its
// fused runs hold Exec-carrying components and end in pre-decoded
// branches and jumps that deliver BlockEnter.
func execImage(t *testing.T) *Code {
	t.Helper()
	prog, err := lang.Compile(memEvProg)
	if err != nil {
		t.Fatal(err)
	}
	exec := make([]bool, len(prog.Instrs))
	for i := range exec {
		exec[i] = i%2 == 1
	}
	code := Compile(prog, Masks{Mem: []bool{}, Exec: exec})
	ex, br := 0, 0
	for pc := range code.code {
		if ci := &code.code[pc]; ci.op == cRun {
			if ci.run[0].op&mExec != 0 {
				ex++
			}
			if ci.t0 >= 0 && ci.b0 != nil {
				br++
			}
		}
	}
	if ex == 0 || br == 0 {
		t.Fatalf("image has %d Exec-carrying heads and %d heads ending in a block-event branch, want both", ex, br)
	}
	return code
}

// TestFusedHeadFlagsMatchMicroOps checks that fused heads keep their
// event flags, which agree with their micro ops: fMemEv exactly on
// heads whose micro op delivers the Mem event, fExecEv exactly on
// heads whose micro op delivers Exec.
func TestFusedHeadFlagsMatchMicroOps(t *testing.T) {
	for _, code := range []*Code{memEvImage(t), execImage(t)} {
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
}

// TestDecodeImageRejectsHeadFlagMismatch flips each fused head's flags
// away from what its micro op implies — the Mem or Exec event dropped
// or added, or a flag no fused component may carry — and requires the
// decoder to reject every such image. It also forges the Exec flag onto
// each branch or jump a run pre-decodes: such a terminator cannot end a
// run, so the image must not decode either.
func TestDecodeImageRejectsHeadFlagMismatch(t *testing.T) {
	for _, code := range []*Code{memEvImage(t), execImage(t)} {
		heads, terms := 0, 0
		for pc := range code.code {
			ci := &code.code[pc]
			if ci.op != cRun {
				continue
			}
			heads++
			orig := ci.flags
			for _, bad := range []uint8{orig ^ fMemEv, orig ^ fExecEv, orig | fNullEv} {
				ci.flags = bad
				_, err := DecodeImage(code.prog, code.EncodeImage())
				if !errors.Is(err, ErrImage) || !strings.Contains(err.Error(), "fused head carries flags") {
					t.Errorf("pc %d: head flags %#x over micro op %s: err = %v", pc, bad, microName(ci.run[0].op), err)
				}
			}
			ci.flags = orig
			if ci.t0 < 0 || int32(len(ci.run)) != ci.nrun-1 {
				continue // its run ends in no pre-decoded terminator
			}
			terms++
			term := &code.code[pc+int(ci.nrun)-1]
			term.flags |= fExecEv
			_, err := DecodeImage(code.prog, code.EncodeImage())
			if !errors.Is(err, ErrImage) || !strings.Contains(err.Error(), "cannot terminate a fused run") {
				t.Errorf("pc %d: Exec-carrying %s terminator: err = %v", pc, term.op, err)
			}
			term.flags &^= fExecEv
		}
		if heads == 0 || terms == 0 {
			t.Fatalf("%d fused heads, %d pre-decoded terminators", heads, terms)
		}
		if _, err := DecodeImage(code.prog, code.EncodeImage()); err != nil {
			t.Fatalf("restored image: %v", err)
		}
	}
}

// TestDecodeImageRejectsOldVersions checks that images carrying an
// earlier format version decode as version errors, which the artifact
// cache treats as misses, never as images: version 2, whose fused runs
// could end in a raw instrumented load or store, version 3, fused under
// the earlier rules (no Exec-carrying component in any run), and
// version 4, which has no input micro op.
func TestDecodeImageRejectsOldVersions(t *testing.T) {
	code := memEvImage(t)
	for _, v := range []byte{2, 3, 4} {
		img := code.EncodeImage()
		img[len(imageMagic)] = v
		img[len(imageMagic)+1] = 0
		_, err := DecodeImage(code.prog, img)
		if !errors.Is(err, ErrImage) || !strings.Contains(err.Error(), fmt.Sprintf("image version %d", v)) {
			t.Fatalf("v%d image: err = %v", v, err)
		}
	}
}
