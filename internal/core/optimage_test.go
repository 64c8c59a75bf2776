package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"oha/internal/interp"
	"oha/internal/workloads"
)

// TestOptFTImageFusesMemEvents checks OptFT's speculative image for a
// race workload whose FastTrack events mostly survive elision: its
// instrumented loads and stores sit inside fused runs, `oha dump`'s
// listing shows them with the M flag and an event-marked micro op, and
// the image survives an encode/decode round trip byte for byte — the
// decoded image disassembles and analyses exactly like the original.
func TestOptFTImageFusesMemEvents(t *testing.T) {
	w := workloads.ByName("pmd")
	prog := w.Prog()
	pr := mustProfile(t, prog, func(run int) Execution {
		return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
	}, 16)
	o, err := NewOptFT(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	spec := o.spec
	code := spec.code

	var listing strings.Builder
	if err := code.Disasm(&listing); err != nil {
		t.Fatal(err)
	}
	evHeads := 0
	for _, line := range strings.Split(listing.String(), "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[1] == "M....." && f[2] == "run" {
			evHeads++
			if !strings.Contains(line, ".ev r") {
				t.Errorf("fused head with the M flag shows no event micro op:\n%s", line)
			}
		}
	}
	if evHeads == 0 {
		t.Fatalf("no instrumented load or store was fused:\n%s", listing.String())
	}
	t.Logf("%d fused heads deliver Mem events", evHeads)

	img := code.EncodeImage()
	dec, err := interp.DecodeImage(prog, img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.EncodeImage(), img) {
		t.Fatal("re-encoded image differs")
	}
	var decListing strings.Builder
	if err := dec.Disasm(&decListing); err != nil {
		t.Fatal(err)
	}
	if decListing.String() != listing.String() {
		t.Fatal("decoded image disassembles differently")
	}

	for i := 0; i < 4; i++ {
		e := Execution{Inputs: w.GenInput(1000 + i), Seed: uint64(2000 + i)}
		o.spec = spec
		want, err := o.Run(e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		o.spec = &plan{prog: spec.prog, masks: spec.masks, code: dec}
		got, err := o.Run(e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: decoded image's report differs:\n got %+v\nwant %+v", i, got, want)
		}
		if want.IC.Fused == 0 || want.FTChecks == 0 {
			t.Fatalf("run %d: fused %d, FastTrack checks %d: the run exercised nothing", i, want.IC.Fused, want.FTChecks)
		}
	}
}
