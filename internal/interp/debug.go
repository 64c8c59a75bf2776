// Step debugger: a programmatic single-step interface over the
// deterministic compiled engine, driving the same scheduler loop as a
// normal run one instruction at a time. `oha stepdebug` wraps it in a
// REPL; the PC→source mapping comes from each compiled instruction's
// bound ir.Instr, so breakpoints are set on source lines.
//
// A Session runs with Quantum forced to 1: fused cRun superinstructions
// clamp their component budget to the remaining quantum, so
// single-stepping retires exactly one component per step even on fully
// fused code — stepping observes the same states an unfused execution
// would pass through.
package interp

import (
	"errors"
	"fmt"

	"oha/internal/vc"
)

// Session is a paused deterministic execution being stepped. Not safe
// for concurrent use.
type Session struct {
	e        *engine
	err      error // terminal error, once finished
	finished bool
	breaks   map[int]bool // source lines with a breakpoint

	// The next scheduling decision, once taken: Loc peeks at it and
	// Step runs it, so each step draws from the chooser exactly once,
	// as a normal run does.
	pick   vc.TID
	picked bool
}

// DebugLoc describes where a thread is stopped: the instruction it
// will execute next.
type DebugLoc struct {
	TID    vc.TID
	PC     int32
	Line   int    // source line (0 if unknown)
	Func   string // function of the current frame
	Instr  string // printed ir.Instr
	Block  int    // basic-block ID
	Depth  int    // frame depth
	Fused  bool   // next dispatch is a fused-run head
	Micro  string // the fused head's own micro op (microName), "" if not fused
	IC     bool   // next dispatch carries an inline cache
	Events string // baked event flags at this PC (flagString)
}

// DebugVar is one named register's current value.
type DebugVar struct {
	Name  string
	Value string
}

// DebugThread summarizes one thread for the `threads` command.
type DebugThread struct {
	TID   vc.TID
	State string
	Depth int
	Loc   DebugLoc // zero for finished threads
}

// NewSession starts a debug session over cfg. The configuration is
// forced to Quantum 1 so each Step retires exactly one instruction
// (or one fused-run component).
func NewSession(cfg Config) (*Session, error) {
	cfg.Quantum = 1
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.start(); err != nil {
		return nil, err
	}
	return &Session{e: e, breaks: map[int]bool{}}, nil
}

// Finished reports whether execution has ended (normally or with an
// error).
func (s *Session) Finished() bool { return s.finished }

// Err returns the terminal error, nil for a clean finish or while
// still running.
func (s *Session) Err() error {
	if errors.Is(s.err, errDebugDone) {
		return nil
	}
	return s.err
}

// errDebugDone marks normal completion internally.
var errDebugDone = errors.New("interp: execution finished")

// Output returns the values printed so far.
func (s *Session) Output() []int64 { return s.e.output }

// Steps returns the instruction count retired so far.
func (s *Session) Steps() uint64 { return s.e.stats.Steps }

// Break sets a breakpoint on a source line; Continue stops before
// executing any instruction on it. Returns false if no instruction
// maps to that line.
func (s *Session) Break(line int) bool {
	found := false
	for _, in := range s.e.code.prog.Instrs {
		if in.Pos.Line == line {
			found = true
			break
		}
	}
	if found {
		s.breaks[line] = true
	}
	return found
}

// ClearBreak removes a line breakpoint.
func (s *Session) ClearBreak(line int) { delete(s.breaks, line) }

// Breakpoints returns the set source lines.
func (s *Session) Breakpoints() []int {
	var out []int
	for l := range s.breaks {
		out = append(out, l)
	}
	return out
}

// locOf builds the DebugLoc of a thread's next instruction.
func (s *Session) locOf(th *cthread) DebugLoc {
	fr := th.frames[len(th.frames)-1]
	ci := &s.e.code.code[fr.pc]
	micro := ""
	if ci.op == cRun {
		micro = microName(ci.run[0].op)
	}
	return DebugLoc{
		TID:    th.id,
		PC:     fr.pc,
		Line:   ci.in.Pos.Line,
		Func:   fr.fn.fn.Name,
		Instr:  ci.in.String(),
		Block:  ci.in.Block.ID,
		Depth:  len(th.frames),
		Fused:  ci.op == cRun,
		Micro:  micro,
		IC:     ci.ic != nil,
		Events: flagString(ci.flags),
	}
}

// decide returns the next scheduling decision, taking it on first use
// and remembering it until Step runs it. A finished or deadlocked
// program draws nothing from the chooser, so retrying those is free.
func (s *Session) decide() (vc.TID, bool, error) {
	if !s.picked {
		pick, ok, err := s.e.pickRunnable()
		if err != nil || !ok {
			return 0, ok, err
		}
		s.pick, s.picked = pick, true
	}
	return s.pick, true, nil
}

// Loc returns where the next Step will execute: the scheduler's
// current pick. ok is false once execution has finished.
func (s *Session) Loc() (DebugLoc, bool) {
	if s.finished {
		return DebugLoc{}, false
	}
	pick, ok, err := s.decide()
	if err != nil || !ok {
		// Don't finalize here; Step owns state transitions.
		return DebugLoc{}, false
	}
	return s.locOf(s.e.threads[pick]), true
}

// Step executes one scheduling slice (one instruction, or one retried
// blocked operation) on the deterministically chosen thread and
// returns the location of the following instruction. ok is false when
// execution has finished — check Err.
func (s *Session) Step() (DebugLoc, bool) {
	if s.finished {
		return DebugLoc{}, false
	}
	pick, ok, err := s.decide()
	if err != nil {
		s.finished, s.err = true, err
		return DebugLoc{}, false
	}
	if !ok {
		s.finished, s.err = true, errDebugDone
		return DebugLoc{}, false
	}
	s.picked = false
	if err := s.e.runSlice(s.e.threads[pick]); err != nil {
		s.finished, s.err = true, err
		return DebugLoc{}, false
	}
	return s.Loc()
}

// Continue steps until a thread is about to enter a breakpoint line,
// or execution finishes. Breakpoints fire on line entry: consecutive
// instructions of the same line on the same thread trigger once, and
// the first step always runs, so continuing from a breakpoint does not
// re-trigger it in place.
func (s *Session) Continue() (DebugLoc, bool) {
	prev, _ := s.Loc()
	loc, ok := s.Step()
	for ok {
		if s.breaks[loc.Line] && !(prev.Line == loc.Line && prev.TID == loc.TID) {
			return loc, true
		}
		prev = loc
		loc, ok = s.Step()
	}
	return loc, ok
}

// Regs returns the named registers of a thread's current frame, in
// declaration order, plus the function's constant-pool tail.
func (s *Session) Regs(tid vc.TID) ([]DebugVar, error) {
	if int(tid) >= len(s.e.threads) {
		return nil, fmt.Errorf("interp: no thread %d", tid)
	}
	th := s.e.threads[tid]
	if len(th.frames) == 0 || th.state == tDone {
		return nil, fmt.Errorf("interp: thread %d has finished", tid)
	}
	fr := th.frames[len(th.frames)-1]
	out := make([]DebugVar, 0, fr.fn.nregs+len(fr.fn.consts))
	for i := 0; i < fr.fn.nregs; i++ {
		name := fmt.Sprintf("r%d", i)
		if i < len(fr.fn.fn.Vars) {
			name = fr.fn.fn.Vars[i].Name
		}
		out = append(out, DebugVar{Name: name, Value: FormatValue(fr.regs[i])})
	}
	for i, v := range fr.fn.consts {
		out = append(out, DebugVar{Name: fmt.Sprintf("k%d", i), Value: FormatValue(v)})
	}
	return out, nil
}

// Globals returns the program's global cells and their current values.
func (s *Session) Globals() []DebugVar {
	cells := s.e.objects[0]
	out := make([]DebugVar, 0, len(cells))
	for _, g := range s.e.code.prog.Globals {
		if g.ID < len(cells) {
			out = append(out, DebugVar{Name: g.Name, Value: FormatValue(cells[g.ID])})
		}
	}
	return out
}

// Threads summarizes every thread.
func (s *Session) Threads() []DebugThread {
	out := make([]DebugThread, 0, len(s.e.threads))
	for _, th := range s.e.threads {
		dt := DebugThread{TID: th.id, Depth: len(th.frames)}
		switch th.state {
		case tRunning:
			dt.State = "running"
		case tBlockedLock:
			dt.State = fmt.Sprintf("blocked(lock %s)", FormatValue(int64(th.waitAddr)))
		case tBlockedJoin:
			dt.State = fmt.Sprintf("blocked(join t%d)", th.waitTID)
		case tDone:
			dt.State = "done"
		}
		if th.state != tDone && len(th.frames) > 0 {
			dt.Loc = s.locOf(th)
		}
		out = append(out, dt)
	}
	return out
}
