package interp

import (
	"fmt"
	"slices"
	"testing"

	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/sched"
	"oha/internal/vc"
	"oha/internal/workloads"
)

// scanReady is the reference ready set: the tree-walker's scan of
// every thread against its wait condition.
func scanReady(e *engine) []vc.TID {
	var out []vc.TID
	for _, th := range e.threads {
		switch th.state {
		case tRunning:
			out = append(out, th.id)
		case tBlockedLock:
			if e.lockGet(th.waitAddr) == 0 {
				out = append(out, th.id)
			}
		case tBlockedJoin:
			if e.threads[th.waitTID].state == tDone {
				out = append(out, th.id)
			}
		}
	}
	return out
}

// scanBlocked is the reference blocked list, ascending by id.
func scanBlocked(e *engine) []vc.TID {
	var out []vc.TID
	for _, th := range e.threads {
		if th.state == tBlockedLock || th.state == tBlockedJoin {
			out = append(out, th.id)
		}
	}
	return out
}

// readyStats counts what checkReadyOracle saw, so a run that never
// blocks or never locks cannot pass vacuously.
type readyStats struct {
	blockedSteps  int // steps taken with some thread blocked
	unwaitedLocks int // lock/unlock steps on an address no other blocked thread waits on, while one is blocked
}

// checkReadyOracle single-steps cfg with a Session whose quantum is
// widened to quantum, and returns how the run ended. Before every step
// the engine's ready set and blocked list must equal a fresh scan; a
// step that only takes or frees a lock no other blocked thread waits
// on must leave the ready set as it was.
func checkReadyOracle(t *testing.T, name string, cfg Config, quantum int, st *readyStats) error {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := s.e
	e.cfg.Quantum = quantum
	for !s.Finished() {
		if want := scanReady(e); !slices.Equal(e.ready, want) {
			t.Fatalf("%s step %d: ready set %v, scan %v", name, e.stats.Steps, e.ready, want)
		}
		blocked := make([]vc.TID, len(e.blocked))
		for i, b := range e.blocked {
			blocked[i] = b.id
		}
		if want := scanBlocked(e); !slices.Equal(blocked, want) {
			t.Fatalf("%s step %d: blocked list %v, scan %v", name, e.stats.Steps, blocked, want)
		}
		var before []vc.TID
		if len(e.blocked) > 0 {
			st.blockedSteps++
			if loc, ok := s.Loc(); ok && unwaitedLockStep(e, loc.TID) {
				st.unwaitedLocks++
				before = slices.Clone(e.ready)
			}
		}
		s.Step()
		if before != nil && !s.Finished() && !slices.Equal(e.ready, before) {
			t.Fatalf("%s step %d: lock word no other thread waits on changed the ready set: %v -> %v",
				name, e.stats.Steps, before, e.ready)
		}
	}
	return s.Err()
}

// unwaitedLockStep reports whether thread tid's next instruction takes
// a free lock or frees a held one whose address no other blocked
// thread waits on. Sync operations end the slice, so a slice starting
// with one executes only it.
func unwaitedLockStep(e *engine, tid vc.TID) bool {
	th := e.threads[tid]
	fr := th.frames[len(th.frames)-1]
	in := &e.code.code[fr.pc]
	if in.op != cLock && in.op != cUnlock {
		return false
	}
	a := opval(fr.regs, in.a)
	if !IsPtr(a) {
		return false
	}
	switch w := e.lockGet(a); {
	case in.op == cLock && w != 0, in.op == cUnlock && w != int32(tid)+1:
		return false // blocks or traps: the word does not change
	}
	for _, b := range e.blocked {
		if b != th && b.state == tBlockedLock && b.waitAddr == a {
			return false
		}
	}
	return true
}

// TestReadySetMatchesScan checks the maintained ready set against the
// scan over the generated program family and the lock- and join-heavy
// race workloads, at Quantum 1 (what a Session runs) and 32 (what a
// run defaults to).
func TestReadySetMatchesScan(t *testing.T) {
	var st readyStats
	for _, q := range []int{1, 32} {
		for seed := uint64(1); seed <= 40; seed++ {
			pc := progen.DefaultConfig()
			if seed%3 == 0 {
				pc = progen.Config{Funcs: 6, Workers: 3, MaxDepth: 4, MaxStmts: 6}
			}
			prog, err := lang.Compile(progen.Generate(seed, pc))
			if err != nil {
				t.Fatal(err)
			}
			// Generated programs may trap or deadlock; the oracle
			// covers them up to that point.
			cfg := Config{Prog: prog, Choose: sched.NewSeeded(seed), MaxSteps: 30_000}
			checkReadyOracle(t, fmt.Sprintf("progen/%d/q%d", seed, q), cfg, q, &st)
		}
		for _, name := range []string{"lusearch", "raytracer", "pmd", "xalan", "luindex"} {
			w := workloads.ByName(name)
			for run := 0; run < 2; run++ {
				cfg := Config{Prog: w.Prog(), Inputs: w.GenInput(run), Choose: sched.NewSeeded(uint64(run + 1))}
				if err := checkReadyOracle(t, fmt.Sprintf("%s/%d/q%d", name, run, q), cfg, q, &st); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
	if st.blockedSteps == 0 || st.unwaitedLocks == 0 {
		t.Fatalf("oracle never exercised: %+v", st)
	}
	t.Logf("%+v", st)
}
