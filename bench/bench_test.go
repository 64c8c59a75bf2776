package main

import (
	"sync"
	"testing"
	"time"

	"oha/internal/artifacts"
	"oha/internal/workloads"
)

// Smoke runs use a short window and a small execution set.
const (
	smokeWindow = 200 * time.Millisecond
	smokeExecs  = 16
)

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// smoke runs every workload once, traced, with a short window; the
// outcomes are shared by the tests below.
var smoke struct {
	once sync.Once
	out  map[string]*outcome
	err  map[string]error
}

func smokeOutcomes(t *testing.T) map[string]*outcome {
	t.Helper()
	smoke.once.Do(func() {
		smoke.out, smoke.err = map[string]*outcome{}, map[string]error{}
		for _, w := range loadTestSpec(t).Workloads {
			smoke.out[w.Name], smoke.err[w.Name] = measure(runConfig{workload: w.Name, seed: 1, window: smokeWindow, trace: newTrace(), execs: smokeExecs})
		}
	})
	for name, err := range smoke.err {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return smoke.out
}

// Every workload emits every metric BENCHMARK.json names in both modes,
// with its unit, and no operation fails; every per-layer metric is
// measured by at least one workload.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	sp := loadTestSpec(t)
	outs := smokeOutcomes(t)
	measured := map[string]bool{}
	for name, out := range outs {
		for k := range out.values {
			measured[k] = true
		}
		for _, traced := range []bool{false, true} {
			res, err := report(out, sp, traced)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", name, m.Name, got, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
			}
		}
		for _, m := range sp.EndToEnd {
			if out.values[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.Name, out.values[m.Name])
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
}

// The workloads separate the layers: analysis is a small share of an
// analysed run on race-elided and a large one on race-traced, and only
// the slice workload records dynamic slice trace nodes.
func TestWorkloadsSeparateLayers(t *testing.T) {
	outs := smokeOutcomes(t)
	if f := outs["race-elided"].values["core.analysis_frac"]; f >= 0.10 {
		t.Errorf("race-elided core.analysis_frac = %g, want < 0.10", f)
	}
	if f := outs["race-traced"].values["core.analysis_frac"]; f <= 0.20 {
		t.Errorf("race-traced core.analysis_frac = %g, want > 0.20", f)
	}
	for name, out := range outs {
		if n := out.values["dynslice.trace_nodes_per_run"]; (n > 0) != (name == "slice") {
			t.Errorf("%s: dynslice.trace_nodes_per_run = %g", name, n)
		}
	}
}

// The counts over the fixed execution set repeat exactly for a seed.
func TestCountsRepeatForSeed(t *testing.T) {
	first := smokeOutcomes(t)["slice"]
	again, err := measure(runConfig{workload: "slice", seed: 1, window: smokeWindow, trace: newTrace(), execs: smokeExecs})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.events_per_run", "core.rollback_frac", "dynslice.trace_nodes_per_run", "core.check_events_per_run"} {
		if a, b := first.values[name], again.values[name]; a != b {
			t.Errorf("%s: %g then %g", name, a, b)
		}
	}
	if first.values["core.rollback_frac"] == 0 {
		t.Error("slice workload never rolled back; perl should")
	}
}

// A result that disagrees with the reference counts as a failed
// operation: here the reference's racy-address set is tampered with,
// which fails every run that agreed with the execution's first result.
func TestTamperedRacyAddrsCountAsFailure(t *testing.T) {
	w := workloads.ByName("pmd")
	p, err := setupProgram("race", w, artifacts.New(""))
	if err != nil {
		t.Fatal(err)
	}
	p.setExecs(testExecs(w, 1, 1))
	r := &steadyRun{def: steadyDefs["race-traced"], progs: []*steadyProg{p}}
	r.visit(nil, "test", p, 0, true, nil)
	r.visit(nil, "test", p, 0, false, nil)
	if err := r.verify(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted != 4 {
		t.Fatalf("untampered: attempted %d, failed %d", r.attempted, r.failed)
	}
	refs, err := references("race", p)
	if err != nil {
		t.Fatal(err)
	}
	tampered := *refs[0].race
	tampered.RacyAddrs = append(append([]int64(nil), tampered.RacyAddrs...), 1<<40)
	refs[0].race = &tampered
	r.compare(p, refs)
	if r.failed != 4 {
		t.Fatalf("tampered reference: failed %d, want 4", r.failed)
	}

	// A run that differs from the first result fails on its own.
	p.first[0].race = &tampered
	r.visit(nil, "test", p, 0, true, nil)
	if r.failed != 5 {
		t.Fatalf("run against a tampered first result: failed %d, want 5", r.failed)
	}
	if ref := refs[0]; ref.same(result{output: ref.output}) {
		t.Fatal("a run without a race report must not match a race reference")
	}
}
