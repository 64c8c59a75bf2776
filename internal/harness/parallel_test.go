package harness

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"oha/internal/artifacts"
)

func TestMapOrderedPreservesOrder(t *testing.T) {
	items := make([]int, 37)
	for i := range items {
		items[i] = i * 10
	}
	for _, workers := range []int{1, 4, 64} {
		got, err := mapOrdered(workers, items, func(i, item int) (int, error) {
			return item + i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*10+i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapOrderedLowestIndexError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	fn := func(i, item int) (int, error) {
		if i == 2 || i == 6 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return item, nil
	}
	for _, workers := range []int{1, 4} {
		_, err := mapOrdered(workers, items, fn)
		if err == nil || err.Error() != "fail 2" {
			t.Errorf("workers=%d: err = %v, want fail 2", workers, err)
		}
	}
}

func TestMapOrderedEmpty(t *testing.T) {
	got, err := mapOrdered(8, nil, func(i, item int) (int, error) {
		return 0, errors.New("must not run")
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map = %v, %v", got, err)
	}
}

// deterministicFig6 strips the wall-clock fields, leaving only the
// columns that must be identical for every pool size.
func deterministicFig6(rows []Fig6Row) []Fig6Row {
	out := make([]Fig6Row, len(rows))
	copy(out, rows)
	for i := range out {
		out[i].PlainSec, out[i].HybridSec, out[i].OptSec = 0, 0, 0
		out[i].OptVsHybrid = Quartiles{}
		out[i].ProfileSec, out[i].SoundSec, out[i].PredSec = 0, 0, 0
	}
	return out
}

// TestHarnessParallelDeterminism asserts that the profiling pool
// changes only wall-clock readings: every deterministic Figure 6
// column is identical across pool sizes, and rows stay in suite order.
func TestHarnessParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	base := tiny()
	base.Parallel = 1
	seq, err := Fig6(base)
	if err != nil {
		t.Fatal(err)
	}
	want := deterministicFig6(seq)
	for _, parallel := range []int{2, 8} {
		opts := tiny()
		opts.Parallel = parallel
		rows, err := Fig6(opts)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		got := deterministicFig6(rows)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parallel=%d: row %d diverged:\n got %+v\nwant %+v", parallel, i, got[i], want[i])
			}
		}
	}
}

// TestSweepParallelDeterminism asserts that the Figure 7/8 sweep is
// identical across pool sizes, with and without a warm artifact cache,
// and that the warm passes are served from the cache.
func TestSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	base := tiny()
	base.Parallel = 1
	want, err := Sweep(base)
	if err != nil {
		t.Fatal(err)
	}
	cache := artifacts.New("")
	for _, parallel := range []int{2, 8} {
		for pass := 0; pass < 2; pass++ { // second pass: warm cache
			opts := tiny()
			opts.Parallel = parallel
			opts.Cache = cache
			got, err := Sweep(opts)
			if err != nil {
				t.Fatalf("parallel=%d pass=%d: %v", parallel, pass, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parallel=%d pass=%d: sweep diverged:\n got %+v\nwant %+v", parallel, pass, got, want)
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("warm passes never hit the cache: %+v", st)
	}
}

// TestTimedSetupBypassesCache asserts that Figures 5/6 never consult
// the artifact cache: every set-up time they report, and so every
// Table 1/2 column, is a cold build.
func TestTimedSetupBypassesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	cache := artifacts.New("")
	opts := tiny()
	opts.Cache = cache
	if _, err := Fig5(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig6(opts); err != nil {
		t.Fatal(err)
	}
	if n := cache.Stats().Lookups(); n != 0 {
		t.Errorf("Figures 5/6 made %d artifact-cache lookups, want 0", n)
	}
}
