package ir

import (
	"fmt"

	"oha/internal/bitset"
)

// Validate checks structural invariants of the program IR: every block
// ends in exactly one terminator, successor counts match terminator
// kinds, predecessor edges mirror successor edges, and instruction /
// block IDs are consistent with Finalize numbering. It returns the
// first violation found, or nil.
func (p *Program) Validate() error {
	for bi, b := range p.Blocks {
		if b.ID != bi {
			return fmt.Errorf("block %s/b%d: ID %d out of order", b.Fn.Name, bi, b.ID)
		}
		term := b.Terminator()
		if term == nil {
			return fmt.Errorf("block %s/b%d: empty (no terminator)", b.Fn.Name, b.ID)
		}
		for i, in := range b.Instrs {
			isTerm := in.Op == OpJmp || in.Op == OpBr || in.Op == OpRet
			if isTerm != (i == len(b.Instrs)-1) {
				return fmt.Errorf("block %s/b%d: instr %d (%s) terminator placement", b.Fn.Name, b.ID, i, in)
			}
			if in.Block != b || in.Index != i {
				return fmt.Errorf("instr %d: stale block/index links", in.ID)
			}
		}
		var wantSuccs int
		switch term.Op {
		case OpJmp:
			wantSuccs = 1
		case OpBr:
			wantSuccs = 2
		case OpRet:
			wantSuccs = 0
		}
		if len(b.Succs) != wantSuccs {
			return fmt.Errorf("block %s/b%d: %d succs for %s", b.Fn.Name, b.ID, len(b.Succs), term.Op)
		}
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				return fmt.Errorf("block %s/b%d: succ b%d missing back edge", b.Fn.Name, b.ID, s.ID)
			}
		}
		for _, pr := range b.Preds {
			if !containsBlock(pr.Succs, b) {
				return fmt.Errorf("block %s/b%d: pred b%d missing forward edge", b.Fn.Name, b.ID, pr.ID)
			}
		}
	}
	for ii, in := range p.Instrs {
		if in.ID != ii {
			return fmt.Errorf("instr %d: ID %d out of order", ii, in.ID)
		}
	}
	return nil
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// Reach holds intra-procedural CFG reachability for a whole program:
// for each block, the set of blocks reachable from it by following
// successor edges (including itself via any cycle, and always
// including itself by convention since execution can re-enter through
// loops or trivially continue within the block).
//
// The static slicer uses this for the paper's flow-sensitive rule
// (§5.1.1): a load only depends on stores in blocks that may precede
// it in the control-flow graph.
type Reach struct {
	from []*bitset.Set // block ID -> reachable block IDs
}

// ComputeReach builds intra-procedural reachability for p. Blocks of
// different functions never reach each other here; interprocedural
// effects are handled by the analyses themselves.
func ComputeReach(p *Program) *Reach {
	r := &Reach{from: make([]*bitset.Set, len(p.Blocks))}
	for _, f := range p.Funcs {
		// Iterate to a fixed point within the function; function CFGs
		// are small so the simple O(n·e) propagation is fine.
		for _, b := range f.Blocks {
			s := bitset.New(len(p.Blocks))
			s.Add(b.ID)
			r.from[b.ID] = s
		}
		changed := true
		for changed {
			changed = false
			for _, b := range f.Blocks {
				for _, succ := range b.Succs {
					if r.from[b.ID].UnionWith(r.from[succ.ID]) {
						changed = true
					}
				}
			}
		}
	}
	return r
}

// BlockReaches reports whether control can flow from block a to block
// b (a == b counts as reachable).
func (r *Reach) BlockReaches(a, b *Block) bool {
	return r.from[a.ID].Has(b.ID)
}

// MayPrecede reports whether instruction def may execute before
// instruction use in some run of their (common or distinct) function:
// true when def's block reaches use's block, or they share a block and
// def comes first, or the block is in a cycle (then any order is
// possible). Instructions in different functions always may precede
// (callers handle interprocedural ordering).
func (r *Reach) MayPrecede(def, use *Instr) bool {
	db, ub := def.Block, use.Block
	if db.Fn != ub.Fn {
		return true
	}
	if db != ub {
		return r.BlockReaches(db, ub)
	}
	if def.Index < use.Index {
		return true
	}
	// Same block, def after use: possible only if the block can reach
	// itself through a cycle.
	for _, s := range db.Succs {
		if r.BlockReaches(s, db) {
			return true
		}
	}
	return false
}

// ReachableBlocks returns the set of blocks (by ID) reachable from the
// entry of f.
func ReachableBlocks(f *Function) *bitset.Set {
	s := &bitset.Set{}
	if f.Entry == nil {
		return s
	}
	var stack []*Block
	stack = append(stack, f.Entry)
	s.Add(f.Entry.ID)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range b.Succs {
			if s.Add(succ.ID) {
				stack = append(stack, succ)
			}
		}
	}
	return s
}

// Dominators computes, for one function, the set of blocks dominating
// each block (by block Index within the function, including the block
// itself). Standard iterative bitset algorithm; function CFGs are
// small.
func Dominators(f *Function) []*bitset.Set {
	n := len(f.Blocks)
	dom := make([]*bitset.Set, n)
	all := bitset.New(n)
	for i := 0; i < n; i++ {
		all.Add(i)
	}
	for i := range dom {
		if f.Blocks[i] == f.Entry {
			dom[i] = bitset.FromSlice([]int{i})
		} else {
			dom[i] = all.Clone()
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if b == f.Entry {
				continue
			}
			var meet *bitset.Set
			for _, p := range b.Preds {
				if meet == nil {
					meet = dom[p.Index].Clone()
				} else {
					meet.IntersectWith(dom[p.Index])
				}
			}
			if meet == nil {
				meet = all.Clone() // unreachable block
			}
			meet.Add(b.Index)
			if !meet.Equal(dom[b.Index]) {
				dom[b.Index] = meet
				changed = true
			}
		}
	}
	return dom
}

// InstrDominates reports whether instruction a executes before
// instruction b on every path that reaches b. Both must belong to the
// same function; dom must be that function's Dominators result.
func InstrDominates(dom []*bitset.Set, a, b *Instr) bool {
	if a.Block == b.Block {
		return a.Index < b.Index
	}
	return dom[b.Block.Index].Has(a.Block.Index)
}
