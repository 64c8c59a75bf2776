// Package sched provides deterministic thread scheduling policies for
// the IR interpreter.
//
// The paper's rollback mechanism (§2.3) relies on deterministic
// record/replay: when an invariant is violated mid-run, the execution
// is re-run under a traditional hybrid analysis and is guaranteed to
// be equivalent. Our interpreter is single-threaded and consults a
// Chooser at every scheduling point, so re-running the same execution
// with a fresh chooser of the same seed replays the same interleaving.
package sched

import "oha/internal/vc"

// Chooser picks which runnable thread executes next. The runnable
// slice is non-empty and sorted ascending; Choose must return one of
// its elements.
type Chooser interface {
	Choose(runnable []vc.TID) vc.TID
}

// RoundRobin cycles through runnable threads in id order, switching to
// the next thread at every scheduling point. The zero value is ready
// to use.
type RoundRobin struct {
	last vc.TID
}

// Choose returns the smallest runnable thread id strictly greater than
// the previous choice, wrapping around.
func (r *RoundRobin) Choose(runnable []vc.TID) vc.TID {
	for _, t := range runnable {
		if t > r.last {
			r.last = t
			return t
		}
	}
	r.last = runnable[0]
	return runnable[0]
}

// Seeded is a deterministic pseudo-random chooser. Distinct seeds
// explore distinct interleavings; the same seed always produces the
// same schedule for the same program and inputs. It uses a splitmix64
// sequence so it has no dependencies and is stable across Go versions.
type Seeded struct {
	state uint64
}

// NewSeeded returns a Seeded chooser with the given seed.
func NewSeeded(seed uint64) *Seeded { return &Seeded{state: seed} }

// Choose picks a pseudo-random runnable thread: the element at index
// z mod len(runnable) for the next splitmix64 output z. The lengths a
// scheduler meets are small, so each has a case with a constant
// divisor, which the compiler turns into multiplies; only longer lists
// pay for a 64-bit division.
func (s *Seeded) Choose(runnable []vc.TID) vc.TID {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	switch n := uint64(len(runnable)); n {
	case 1:
		return runnable[0]
	case 2:
		return runnable[z%2]
	case 3:
		return runnable[z%3]
	case 4:
		return runnable[z%4]
	case 5:
		return runnable[z%5]
	case 6:
		return runnable[z%6]
	case 7:
		return runnable[z%7]
	case 8:
		return runnable[z%8]
	default:
		return runnable[z%n]
	}
}
