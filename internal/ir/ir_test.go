package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
)

// buildDiamond constructs by hand:
//
//	b0: br c -> b1, b2
//	b1: jmp b3
//	b2: jmp b3
//	b3: ret
//	b4: ret            (unreachable)
func buildDiamond() (*Program, *Function) {
	p := NewProgram()
	f := &Function{Name: "main"}
	p.AddFunc(f)
	c := f.NewVar("c")
	b0, b1, b2, b3, b4 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = b0
	b0.Instrs = []*Instr{{Op: OpBr, A: VarOp(c)}}
	b0.Succs = []*Block{b1, b2}
	b1.Instrs = []*Instr{{Op: OpJmp}}
	b1.Succs = []*Block{b3}
	b2.Instrs = []*Instr{{Op: OpJmp}}
	b2.Succs = []*Block{b3}
	b3.Instrs = []*Instr{{Op: OpCopy, Dst: c, A: ConstOp(1)}, {Op: OpRet, A: ConstOp(0)}}
	b4.Instrs = []*Instr{{Op: OpRet, A: ConstOp(0)}}
	p.Finalize()
	return p, f
}

func TestFinalizeAndValidate(t *testing.T) {
	p, f := buildDiamond()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(p.Blocks) != 5 || len(p.Instrs) != 6 {
		t.Fatalf("blocks=%d instrs=%d", len(p.Blocks), len(p.Instrs))
	}
	for i, in := range p.Instrs {
		if in.ID != i {
			t.Errorf("instr %d has ID %d", i, in.ID)
		}
	}
	b3 := f.Blocks[3]
	if len(b3.Preds) != 2 {
		t.Errorf("b3 preds = %d, want 2", len(b3.Preds))
	}
}

func TestValidateCatchesBrokenCFG(t *testing.T) {
	p, f := buildDiamond()
	// Break it: remove a successor without re-finalizing.
	f.Blocks[0].Succs = f.Blocks[0].Succs[:1]
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted br with one successor")
	}

	p2, f2 := buildDiamond()
	f2.Blocks[1].Instrs = nil
	if err := p2.Validate(); err == nil {
		t.Error("Validate accepted empty block")
	}

	p3, f3 := buildDiamond()
	// Terminator in the middle.
	b3 := f3.Blocks[3]
	b3.Instrs[0], b3.Instrs[1] = b3.Instrs[1], b3.Instrs[0]
	if err := p3.Validate(); err == nil {
		t.Error("Validate accepted mid-block terminator")
	}
}

func TestReach(t *testing.T) {
	p, f := buildDiamond()
	r := ComputeReach(p)
	b := f.Blocks
	if !r.BlockReaches(b[0], b[3]) {
		t.Error("b0 !-> b3")
	}
	if r.BlockReaches(b[1], b[2]) {
		t.Error("b1 -> b2 across diamond")
	}
	if r.BlockReaches(b[3], b[0]) {
		t.Error("b3 -> b0 backwards")
	}
	if !r.BlockReaches(b[4], b[4]) {
		t.Error("block does not reach itself")
	}
}

func TestMayPrecede(t *testing.T) {
	p, f := buildDiamond()
	r := ComputeReach(p)
	br := f.Blocks[0].Instrs[0]
	copyIn := f.Blocks[3].Instrs[0]
	retIn := f.Blocks[3].Instrs[1]
	if !r.MayPrecede(br, copyIn) {
		t.Error("b0 instr cannot precede b3 instr")
	}
	if r.MayPrecede(copyIn, br) {
		t.Error("b3 instr precedes b0 instr")
	}
	if !r.MayPrecede(copyIn, retIn) {
		t.Error("in-block order lost")
	}
	if r.MayPrecede(retIn, copyIn) {
		t.Error("acyclic block claims self-loop ordering")
	}
}

func TestMayPrecedeLoop(t *testing.T) {
	// b0: jmp b1; b1: i=i; br -> b1, b2; b2: ret
	p := NewProgram()
	f := &Function{Name: "main"}
	p.AddFunc(f)
	i := f.NewVar("i")
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = b0
	b0.Instrs = []*Instr{{Op: OpJmp}}
	b0.Succs = []*Block{b1}
	b1.Instrs = []*Instr{{Op: OpCopy, Dst: i, A: VarOp(i)}, {Op: OpBr, A: VarOp(i)}}
	b1.Succs = []*Block{b1, b2}
	b2.Instrs = []*Instr{{Op: OpRet, A: ConstOp(0)}}
	p.Finalize()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r := ComputeReach(p)
	cp := b1.Instrs[0]
	br := b1.Instrs[1]
	// In a loop, the later instruction may precede the earlier one on
	// the next iteration.
	if !r.MayPrecede(br, cp) {
		t.Error("loop back-edge ordering lost")
	}
}

func TestReachableBlocks(t *testing.T) {
	_, f := buildDiamond()
	s := ReachableBlocks(f)
	if s.Len() != 4 {
		t.Errorf("reachable = %d, want 4 (b4 unreachable)", s.Len())
	}
	if s.Has(f.Blocks[4].ID) {
		t.Error("unreachable block marked reachable")
	}
}

func TestInstrString(t *testing.T) {
	p, f := buildDiamond()
	_ = p
	br := f.Blocks[0].Instrs[0]
	if s := br.String(); !strings.Contains(s, "br c") {
		t.Errorf("br String = %q", s)
	}
	ret := f.Blocks[3].Instrs[1]
	if s := ret.String(); !strings.HasPrefix(s, "ret") {
		t.Errorf("ret String = %q", s)
	}
}

func TestOperandHelpers(t *testing.T) {
	g := &Global{Name: "g"}
	fn := &Function{Name: "f"}
	cases := []struct {
		op   Operand
		want string
	}{
		{ConstOp(3), "3"},
		{GlobalOp(g), "@g"},
		{FuncOp(fn), "fn:f"},
		{Operand{}, "_"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("operand String = %q, want %q", got, c.want)
		}
	}
	if !(Operand{}).IsZero() || ConstOp(0).IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestDominators(t *testing.T) {
	p, f := buildDiamond()
	_ = p
	dom := Dominators(f)
	b := f.Blocks
	// b0 dominates everything reachable; b1 does not dominate b3.
	for _, i := range []int{0, 1, 2, 3} {
		if !dom[i].Has(0) {
			t.Errorf("b0 should dominate b%d", i)
		}
	}
	if dom[3].Has(1) || dom[3].Has(2) {
		t.Error("diamond arm dominates join block")
	}
	if !dom[1].Has(1) {
		t.Error("block does not dominate itself")
	}
	// Instruction-level: within b3, copy dominates ret.
	cp, ret := b[3].Instrs[0], b[3].Instrs[1]
	if !InstrDominates(dom, cp, ret) || InstrDominates(dom, ret, cp) {
		t.Error("in-block instruction dominance wrong")
	}
	br := b[0].Instrs[0]
	if !InstrDominates(dom, br, cp) {
		t.Error("entry instruction does not dominate join block")
	}
	if InstrDominates(dom, b[1].Instrs[0], cp) {
		t.Error("arm instruction dominates join block")
	}
}

func TestOpAndInstrStrings(t *testing.T) {
	// Every opcode renders a distinct non-empty name.
	seen := map[string]bool{}
	for op := OpInvalid; op <= OpNInputs; op++ {
		s := op.String()
		if s == "" || seen[s] {
			t.Errorf("opcode %d renders %q", op, s)
		}
		seen[s] = true
	}
	if Op(200).String() == "" {
		t.Error("unknown opcode renders empty")
	}
	for b := BinAdd; b <= BinShr; b++ {
		if b.String() == "" {
			t.Errorf("binop %d empty", b)
		}
	}
	if UnNeg.String() != "-" || UnNot.String() != "!" {
		t.Error("unop strings wrong")
	}
	// Instruction renderings for each shape.
	v := &Var{Name: "v"}
	g := &Global{Name: "g"}
	f := &Function{Name: "f"}
	cases := []*Instr{
		{Op: OpCopy, Dst: v, A: ConstOp(1)},
		{Op: OpUn, Un: UnNeg, Dst: v, A: VarOp(v)},
		{Op: OpBin, Bin: BinAdd, Dst: v, A: VarOp(v), B: ConstOp(2)},
		{Op: OpAlloc, Dst: v, A: ConstOp(4)},
		{Op: OpLoad, Dst: v, A: GlobalOp(g)},
		{Op: OpStore, A: GlobalOp(g), B: VarOp(v)},
		{Op: OpCall, Dst: v, Callee: f, Args: []Operand{ConstOp(1), VarOp(v)}},
		{Op: OpCall, Dst: v, A: VarOp(v)},
		{Op: OpSpawn, Dst: v, Callee: f},
		{Op: OpJoin, A: VarOp(v)},
		{Op: OpLock, A: GlobalOp(g)},
		{Op: OpUnlock, A: GlobalOp(g)},
		{Op: OpRet, A: ConstOp(0)},
		{Op: OpRet},
		{Op: OpPrint, A: VarOp(v)},
		{Op: OpInput, Dst: v, A: ConstOp(0)},
		{Op: OpNInputs, Dst: v},
	}
	for _, in := range cases {
		if in.String() == "" {
			t.Errorf("empty rendering for %v", in.Op)
		}
	}
	if (&Instr{Op: OpInvalid}).String() == "" {
		t.Error("invalid op renders empty")
	}
	if (Pos{Line: 3, Col: 4}).String() != "3:4" {
		t.Error("Pos.String wrong")
	}
}

func TestInstrPredicates(t *testing.T) {
	f := &Function{Name: "f"}
	direct := &Instr{Op: OpCall, Callee: f}
	indirect := &Instr{Op: OpCall}
	if !direct.IsCallLike() || direct.IsIndirect() {
		t.Error("direct call predicates wrong")
	}
	if !indirect.IsIndirect() {
		t.Error("indirect call predicate wrong")
	}
	if !(&Instr{Op: OpLoad}).IsMemAccess() || (&Instr{Op: OpCopy}).IsMemAccess() {
		t.Error("IsMemAccess wrong")
	}
	for _, op := range []Op{OpLock, OpUnlock, OpSpawn, OpJoin} {
		if !(&Instr{Op: op}).IsSync() {
			t.Errorf("%v not sync", op)
		}
	}
	if (&Instr{Op: OpLoad}).IsSync() {
		t.Error("load is sync")
	}
}

// TestDigestConcurrent digests one program from many goroutines at
// once: every caller gets the SHA-256 of the printed IR.
func TestDigestConcurrent(t *testing.T) {
	p, _ := buildDiamond()
	sum := sha256.Sum256([]byte(p.String()))
	want := hex.EncodeToString(sum[:])
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.Digest()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Errorf("caller %d: digest %s, want %s", i, d, want)
		}
	}
}
