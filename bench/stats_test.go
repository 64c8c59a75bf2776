package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {100, 10}, {90, 9.1}, {99, 9.91}} {
		if got := percentile(append([]float64(nil), xs...), c.p); !near(got, c.want) {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one value = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1.5, 2.25, 9, 4}, 1.875, 4, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %g, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %g, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of none = %g", got)
	}
}

// tailLevel reports the highest percentile with at least ten samples
// beyond it.
func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// A reservoir stays within sampleCap and keeps runs spread evenly over
// everything offered: after 1000 runs, every 16th.
func TestReservoirKeepsEvenSpread(t *testing.T) {
	r := reservoir{stride: 1}
	for i := 1; i <= 1000; i++ {
		r.add(timed{ns: float64(i)})
		if len(r.xs) > sampleCap {
			t.Fatalf("after %d runs the reservoir holds %d", i, len(r.xs))
		}
	}
	if r.stride != 16 || len(r.xs) != 62 || r.seen != 1000 {
		t.Fatalf("stride %d, %d kept, %d seen; want 16, 62, 1000", r.stride, len(r.xs), r.seen)
	}
	for k, x := range r.xs {
		if x.ns != float64(16*(k+1)) {
			t.Fatalf("kept[%d] = run %g, want run %d", k, x.ns, 16*(k+1))
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_norm", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "throughput_per_kcal", Better: "higher", Bound: 0.1}
	base := func() []float64 { return []float64{100, 101, 99, 100, 102} }
	cases := []struct {
		m    specMetric
		b    []float64
		want string
	}{
		{lower, []float64{101, 100, 99, 102, 100}, "same"},
		{lower, []float64{120, 121, 119, 120, 122}, "worse"},
		{lower, []float64{80, 81, 79, 80, 82}, "better"},
		{higher, []float64{80, 81, 79, 80, 82}, "worse"},
		{lower, []float64{60, 140, 100, 70, 130}, "unresolved"},
		// Spread beyond the bound, but every run of B beats every run of A.
		{lower, []float64{10, 50, 30, 20, 40}, "better"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.m, base(), c.b); got != c.want {
			t.Errorf("verdict(%s, %v) = %s, want %s", c.m.Better, c.b, got, c.want)
		}
	}
}
