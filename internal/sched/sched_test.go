package sched

import (
	"testing"

	"oha/internal/vc"
)

func tids(xs ...int) []vc.TID {
	out := make([]vc.TID, len(xs))
	for i, x := range xs {
		out[i] = vc.TID(x)
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	rr := &RoundRobin{}
	run := tids(0, 1, 2)
	var got []vc.TID
	for i := 0; i < 6; i++ {
		got = append(got, rr.Choose(run))
	}
	want := tids(1, 2, 0, 1, 2, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("choice %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestRoundRobinSkipsMissing(t *testing.T) {
	rr := &RoundRobin{}
	if got := rr.Choose(tids(0, 3)); got != 3 {
		t.Errorf("first = %d, want 3", got)
	}
	if got := rr.Choose(tids(0, 3)); got != 0 {
		t.Errorf("wrap = %d, want 0", got)
	}
}

func TestSeededDeterministic(t *testing.T) {
	a, b := NewSeeded(7), NewSeeded(7)
	run := tids(0, 1, 2, 3)
	for i := 0; i < 100; i++ {
		if a.Choose(run) != b.Choose(run) {
			t.Fatal("same seed diverged")
		}
	}
	c, d := NewSeeded(1), NewSeeded(2)
	same := true
	for i := 0; i < 50; i++ {
		if c.Choose(run) != d.Choose(run) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical 50-step schedules")
	}
}

// refChoose is the reference pick: index z mod n of the splitmix64
// output, with a plain 64-bit modulo.
func refChoose(state *uint64, runnable []vc.TID) vc.TID {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return runnable[z%uint64(len(runnable))]
}

// TestSeededMatchesModulo requires every pick to be the reference
// formula's for every length 1–64 over 10^5 successive states of
// several seeds, so schedules stay bit-identical.
func TestSeededMatchesModulo(t *testing.T) {
	states := 100_000
	if testing.Short() {
		states = 10_000
	}
	all := make([]vc.TID, 64)
	for i := range all {
		all[i] = vc.TID(3*i + 1) // distinct values, not equal to indices
	}
	for _, seed := range []uint64{0, 1, 2, 0xdeadbeef, ^uint64(0)} {
		for n := 1; n <= len(all); n++ {
			run := all[:n]
			s, ref := NewSeeded(seed), seed
			for i := 0; i < states; i++ {
				if got, want := s.Choose(run), refChoose(&ref, run); got != want {
					t.Fatalf("seed %#x len %d state %d: Choose = %d, want %d", seed, n, i, got, want)
				}
			}
		}
	}
}
