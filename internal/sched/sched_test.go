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
