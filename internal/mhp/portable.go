// Portable serialization of MHP results for the artifact cache's disk
// tier. Only the root structure is stored — reachability and dominator
// sets are pure CFG functions and come back from the per-program cache
// on decode, so the wire form stays small and can never disagree with
// the program it is rebound to.
package mhp

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"oha/internal/bitset"
	"oha/internal/ir"
)

type wireForkJoin struct {
	Present bool
	Spawn   int
	Joins   []int
}

type wireMHP struct {
	Roots [][]uint64 // per-function root sets, word images
	Multi []bool
	Order []wireForkJoin
}

// Encode serializes the result for the disk tier.
func (r *Result) Encode() ([]byte, error) {
	w := wireMHP{
		Multi: append([]bool(nil), r.multi...),
		Roots: make([][]uint64, len(r.roots)),
		Order: make([]wireForkJoin, len(r.order)),
	}
	for i, s := range r.roots {
		if s != nil {
			w.Roots[i] = s.Words()
		}
	}
	for i, fj := range r.order {
		if fj != nil {
			w.Order[i] = wireForkJoin{Present: true, Spawn: fj.spawn.ID}
			for _, j := range fj.joins {
				w.Order[i].Joins = append(w.Order[i].Joins, j.ID)
			}
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeResult restores a serialized result against prog, rebinding
// instruction IDs and recomputing the CFG-derived structures. Every ID
// and index is validated.
func DecodeResult(prog *ir.Program, data []byte) (*Result, error) {
	var w wireMHP
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("mhp: decode: %w", err)
	}
	bad := func(format string, args ...any) (*Result, error) {
		return nil, fmt.Errorf("mhp: decode: %s", fmt.Sprintf(format, args...))
	}
	nroots := len(w.Multi)
	if len(w.Order) != nroots {
		return bad("root tables disagree: multi=%d order=%d", nroots, len(w.Order))
	}
	if nroots == 0 {
		return bad("missing main root")
	}
	if len(w.Roots) != len(prog.Funcs) {
		return bad("roots for %d functions, program has %d", len(w.Roots), len(prog.Funcs))
	}
	// Fork-join ordering is only ever recorded for main's own spawns and
	// joins.
	instr := func(id int, op ir.Op, what string) (*ir.Instr, error) {
		if id < 0 || id >= len(prog.Instrs) {
			return nil, fmt.Errorf("mhp: decode: %s instruction %d out of range", what, id)
		}
		in := prog.Instrs[id]
		if in.Op != op || in.Block.Fn != prog.Main() {
			return nil, fmt.Errorf("mhp: decode: %s instruction %d is %v in %s", what, id, in.Op, in.Block.Fn.Name)
		}
		return in, nil
	}
	r := &Result{
		prog:    prog,
		multi:   w.Multi,
		roots:   make([]*bitset.Set, len(w.Roots)),
		order:   make([]*forkJoin, nroots),
		reach:   ir.ComputeReach(prog),
		mainDom: ir.Dominators(prog.Main()),
	}
	for i, words := range w.Roots {
		s := bitset.FromWords(words)
		outOfRange := false
		s.ForEach(func(rid int) bool {
			if rid >= nroots {
				outOfRange = true
				return false
			}
			return true
		})
		if outOfRange {
			return bad("function %d names an out-of-range root", i)
		}
		r.roots[i] = s
	}
	for rid, fj := range w.Order {
		if !fj.Present {
			continue
		}
		spawn, err := instr(fj.Spawn, ir.OpSpawn, "fork-join spawn")
		if err != nil {
			return nil, err
		}
		out := &forkJoin{spawn: spawn}
		for _, id := range fj.Joins {
			j, err := instr(id, ir.OpJoin, "fork-join join")
			if err != nil {
				return nil, err
			}
			out.joins = append(out.joins, j)
		}
		r.order[rid] = out
	}
	return r, nil
}
