package core

import (
	"regexp"
	"strings"
	"testing"

	"oha/internal/interp"
	"oha/internal/workloads"
)

// fusionShapes are the fused shapes of the compiled engine that must
// earn their place, each with the listing pattern `oha dump` shows it
// under: the copy pairs, the address pairs with and without Mem events,
// and input inside a fused run.
var fusionShapes = []struct {
	name string
	re   *regexp.Regexp
}{
	{"add>copy", regexp.MustCompile(`[{;] add>copy `)},
	{"sub>copy", regexp.MustCompile(`[{;] sub>copy `)},
	{"add>load", regexp.MustCompile(`[{;] add>load `)},
	{"add>load.ev", regexp.MustCompile(`[{;] add>load\.ev `)},
	{"add>store", regexp.MustCompile(`[{;] add>store `)},
	{"add>store.ev", regexp.MustCompile(`[{;] add>store\.ev `)},
	{"input in a run", regexp.MustCompile(`fused\{[^}]*\binput[ .]`)},
}

// TestFusionShapesEarnTheirPlace compiles every workload's plain image
// and the images its analyses run, the optimistic one and its sound
// fallback, and requires each fused shape to appear in at least one of
// them. A shape the suite never emits is dead weight in the run
// handler and is to be deleted, not kept.
func TestFusionShapesEarnTheirPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every workload")
	}
	counts := make([]int, len(fusionShapes))
	for _, w := range workloads.All() {
		prog := w.Prog()
		pr := mustProfile(t, prog, func(run int) Execution { return workCountProfileExec(w, run) }, 16)
		images := []*interp.Code{compiledCode(prog, plainMasks, compileOpts(pr.DB, StaticConfig{}), nil).code}
		switch w.Kind {
		case workloads.Race:
			opt, err := NewOptFT(prog, pr.DB)
			if err != nil {
				t.Fatal(err)
			}
			sound, err := opt.gens.sound.get()
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, opt.spec.code, sound.plan.code)
		case workloads.Slice:
			opt, err := NewOptSlice(prog, pr.DB, workCountCriterion(prog), workCountBudget)
			if err != nil {
				t.Fatal(err)
			}
			sound, err := opt.gens.sound.get()
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, opt.plan.code, sound.plan.code)
		case workloads.Null:
			opt, err := NewOptNull(prog, pr.DB, StaticConfig{})
			if err != nil {
				t.Fatal(err)
			}
			sound, err := opt.gens.sound.get()
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, opt.plan.code, sound.plan.code)
		}
		for _, code := range images {
			var sb strings.Builder
			if err := code.Disasm(&sb); err != nil {
				t.Fatal(err)
			}
			for i, s := range fusionShapes {
				counts[i] += len(s.re.FindAllString(sb.String(), -1))
			}
		}
	}
	for i, s := range fusionShapes {
		t.Logf("%-16s %d listing entries", s.name, counts[i])
		if counts[i] == 0 {
			t.Errorf("no workload image has a %s", s.name)
		}
	}
}
