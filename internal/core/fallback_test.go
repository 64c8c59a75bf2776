package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"oha/internal/lang"
)

// countFallbackBuilds wraps g's sound fallback constructor so that the
// returned counter counts its calls. Call it before the first run.
func countFallbackBuilds[D, S any](g *generations[D, S]) *atomic.Int32 {
	n := new(atomic.Int32)
	build := g.sound.build
	g.sound.build = func() (S, error) {
		n.Add(1)
		return build()
	}
	return n
}

// reportOf adapts a client's Run to the outcome every report embeds.
func reportOf[R Report](run func(Execution, RunOptions) (R, error)) func(Execution) (*Outcome, error) {
	return func(e Execution) (*Outcome, error) {
		rep, err := run(e, RunOptions{})
		if err != nil {
			return nil, err
		}
		return rep.Base(), nil
	}
}

// TestCleanAndRefinedRunsBuildNoFallback: each client's detector builds
// its sound fallback only when a run falls through to it, so neither a
// clean run nor a rollback that refined generations resolve (one for
// race and slice, two for nullcheck) builds it.
func TestCleanAndRefinedRunsBuildNoFallback(t *testing.T) {
	path := lang.MustCompile(pathProg)
	pathDB := mustProfile(t, path, gen(5), 10).DB
	slice := lang.MustCompile(sliceLUCSrc)
	sliceDB := mustProfile(t, slice, gen(3, 9), 10).DB

	oft, err := NewOptFT(path, pathDB)
	if err != nil {
		t.Fatal(err)
	}
	osl, err := NewOptSlice(slice, sliceDB, lastPrintOf(t, slice), 4096)
	if err != nil {
		t.Fatal(err)
	}
	onu, err := NewOptNull(path, pathDB, StaticConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name           string
		builds         *atomic.Int32
		run            func(Execution) (*Outcome, error)
		clean, violate Execution
	}{
		{"race", countFallbackBuilds(oft.gens), reportOf(oft.Run), Execution{Inputs: []int64{5}, Seed: 3}, Execution{Inputs: []int64{500}, Seed: 3}},
		{"slice", countFallbackBuilds(osl.gens), reportOf(osl.Run), Execution{Inputs: []int64{3, 9}, Seed: 1}, Execution{Inputs: []int64{99, 9}, Seed: 1}},
		{"nullcheck", countFallbackBuilds(onu.gens), reportOf(onu.Run), Execution{Inputs: []int64{5}, Seed: 3}, Execution{Inputs: []int64{500}, Seed: 3}},
	}
	for _, c := range cases {
		clean, err := c.run(c.clean)
		if err != nil {
			t.Fatal(err)
		}
		if clean.RolledBack {
			t.Fatalf("%s: the clean execution rolled back: %v", c.name, clean.Violation)
		}
		refined, err := c.run(c.violate)
		if err != nil {
			t.Fatal(err)
		}
		if refined.RolledBackTo != RollbackRefined {
			t.Fatalf("%s: rolled back to %q refuting %v, want a refined generation", c.name, refined.RolledBackTo, refined.Refuted)
		}
		if n := c.builds.Load(); n != 0 {
			t.Errorf("%s: a clean run and a refined rollback built the sound fallback %d times, want 0", c.name, n)
		}
	}
}

// TestExhaustedChainBuildsFallbackOnce: concurrent runs whose rollback
// chains all exhaust their refinements share one sound fallback, built
// once, and every one returns the sequential report.
func TestExhaustedChainBuildsFallbackOnce(t *testing.T) {
	e := Execution{Inputs: []int64{99, 1, 99, 2, 99}, Seed: 1}
	want, err := chainSlicer(t, rareBranchesSrc, 0, 0, 0, 0, 0).Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.RolledBackTo != RollbackSound {
		t.Fatalf("rolled back to %q, want an exhausted chain", want.RolledBackTo)
	}
	o := chainSlicer(t, rareBranchesSrc, 0, 0, 0, 0, 0)
	builds := countFallbackBuilds(o.gens)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := o.Run(e, RunOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("report differs from the sequential one")
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d sound fallback builds for 8 exhausted chains, want 1", n)
	}
}
