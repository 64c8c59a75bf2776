// Bytecode compiler: lowers an ir.Program plus a set of per-site
// instrumentation masks into a flat instruction array the compiled
// engine (engine.go) executes directly.
//
// The lowering does three things the tree-walker pays for on every
// step:
//
//   - operands are pre-resolved: a compiled operand is either a frame
//     register index or an immediate value (constants, global
//     addresses, and function values are all encoded at compile time),
//     so the hot loop never runs an operand-kind switch;
//   - control flow is flattened: branch targets are absolute PCs into
//     the instruction array rather than block pointers walked
//     per-block;
//   - the Tracer != nil && masked(...) decisions for Mem/Sync/Block/
//     Exec events are baked into per-instruction flag bits, so the hot
//     loop never consults a mask.
//
// Two further lowerings are speculative (CompileWith):
//
//   - indirect call/spawn sites whose likely callee set (profiled
//     invariants.DB.Callees) is monomorphic or small-polymorphic are
//     seeded with an inline cache: 1-4 (function value, compiled
//     target) pairs baked into the instruction, so a hit dispatches on
//     one int64 compare instead of decode + table load + arity check;
//   - a peephole pass fuses straight-line runs of simple ops within a
//     block (arith/copy/load/store chains, with their Mem and Exec
//     events on included, optionally ending in a branch, jump, call,
//     or return) into cRun superinstructions dispatched once with a
//     single budget check.
//
// Both are semantically invisible: an IC miss falls back to generic
// resolution (the callee-set *invariant* is still checked by the
// tracer, which raises the violation that drives deoptimization), and
// a run that straddles a quantum or step-limit boundary splits there —
// the admitted prefix retires in one dispatch and execution resumes at
// the intact original instructions — so scheduling is bit-identical to
// the tree-walker.
//
// Compiled code depends only on (program IR, masks, CompileOptions)
// and is immutable after Compile, so it is shared freely between
// concurrent executions and content-addressed by (IR digest, config
// digest) in the artifact cache.
package interp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"oha/internal/ir"
)

// Masks bundles the per-site instrumentation masks of one execution
// configuration (Config.Masks); it is the compile-time input that,
// together with the program, fully determines a compiled image. A nil
// Mem/Sync/Block mask means "every site" for that event kind and a
// non-nil one delivers events only where true. Exec events are opt-in:
// every instruction with ExecAll, else only where Exec is true (a nil
// Exec without ExecAll delivers none).
type Masks struct {
	Mem     []bool // by instr ID: Load/Store events
	Sync    []bool // by instr ID: Lock/Unlock events
	Block   []bool // by block ID: BlockEnter events
	Exec    []bool // by instr ID: Exec firehose
	ExecAll bool
	// Null marks load/store sites that carry a residual null check
	// (the OptNull client's dynamic checks). A checked access through
	// address 0 is recovered deterministically — a load writes 0 to its
	// destination, a store is dropped — and delivers a NilDeref event
	// instead of trapping. Unlike the event masks, a nil Null mask
	// means NO checks — null checking is opt-in, exactly like the Exec
	// firehose.
	Null []bool
}

// Digest returns a content digest of the masks, distinguishing nil
// from all-true masks (they are semantically different for Exec and
// identical for the rest, but keying conservatively is harmless).
func (m Masks) Digest() string {
	h := sha256.New()
	writeMask := func(mask []bool) {
		if mask == nil {
			h.Write([]byte{0})
			return
		}
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(mask)))
		h.Write([]byte{1})
		h.Write(n[:])
		var acc byte
		var nb int
		for _, b := range mask {
			acc <<= 1
			if b {
				acc |= 1
			}
			if nb++; nb == 8 {
				h.Write([]byte{acc})
				acc, nb = 0, 0
			}
		}
		if nb > 0 {
			h.Write([]byte{acc})
		}
	}
	writeMask(m.Mem)
	writeMask(m.Sync)
	writeMask(m.Block)
	writeMask(m.Exec)
	if m.ExecAll {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	writeMask(m.Null)
	return hex.EncodeToString(h.Sum(nil))
}

// copcode enumerates compiled opcodes. OpUn splits into negate/not so
// the hot loop never inspects ir.UnOp. Hot opcodes come first: the
// dispatch switch compiles to a dense jump table, and clustering the
// hot entries (straight-line data flow, control flow, fused pairs,
// calls) at low values keeps their table slots and handler code on
// neighboring cache lines.
type copcode uint8

const (
	cInvalid copcode = iota
	cBin
	cCopy
	cLoad
	cStore
	cBr
	cJmp
	// cRun is the fused superinstruction: the head of a straight-line
	// run of simple ops is rewritten to cRun (keeping its event flags);
	// every component is itself a head over the run's suffix, so a run
	// split by a quantum or step-limit boundary resumes mid-run still
	// fused.
	cRun
	cCall
	cSpawn
	cNeg
	cNot
	cAlloc
	cLock
	cUnlock
	cJoin
	cRet
	cPrint
	cInput
	cNInputs
)

// Per-instruction event flags, baked from the masks at compile time.
// The engine still checks Tracer != nil at runtime (one nil test), so
// a single compiled image serves both traced and untraced runs.
const (
	fMemEv  uint8 = 1 << iota // deliver Load/Store
	fSyncEv                   // deliver Lock/Unlock
	fExecEv                   // deliver Exec after this instruction
	fBlkEv0                   // deliver BlockEnter for target t0
	fBlkEv1                   // deliver BlockEnter for target t1
	fNullEv                   // null-check this load/store's address first
)

// regNone marks an absent register (no Dst, immediate operand).
const regNone int32 = -1

// coperand is a pre-resolved operand: a register index, or an
// immediate when reg == regNone (constants, global addresses, and
// function values are all immediates after lowering).
type coperand struct {
	reg int32
	imm int64
}

// icEntry is one inline-cache entry: a pre-encoded function value and
// its compiled target. Entries are arity-checked at compile time, so a
// hit needs no further validation.
type icEntry struct {
	val int64
	fn  *cfunc
}

// cinstr is one compiled instruction.
type cinstr struct {
	op    copcode
	flags uint8
	bin   ir.BinOp
	cond  uint8 // fused head: its br terminator's condition register
	dst   int32 // destination register, regNone if absent
	a, b  coperand

	// Branch targets and BlockEnter payloads (jmp/br). A fused head
	// whose run ends in a branch or jump carries that terminator here
	// too, pre-decoded (predecodeTerm); every other head has t0 = -1.
	t0, t1 int32      // absolute branch-target PCs
	b0, b1 *ir.Block  // BlockEnter payloads for t0/t1
	args   []coperand // call/spawn arguments
	fn     *cfunc     // direct call/spawn target; nil means indirect via a
	in     *ir.Instr  // source instruction (traps, event payloads)

	// Fused-run payload (cRun): nrun is the total component count,
	// head included, and run the pre-decoded micro-op stream covering
	// the head and every interior component (a branch, jump, call, or
	// return terminator stays behind as the raw instruction at
	// pc+nrun-1, so len(run) < nrun exactly when the run has one; a
	// branch or jump is also pre-decoded into t0/t1/b0/b1/cond).
	// Interior positions are themselves cRun heads over the shared
	// stream's suffix, so a run split by a budget boundary resumes
	// mid-run still fused. A call or return is always a run of just
	// its own terminator (nrun 1, no micro-ops), so the engine's run
	// handler executes it whether or not it ends a fused run; every
	// other non-head has nrun 0.
	nrun int32
	run  []microp

	// Speculative inline cache for indirect call/spawn (nil: generic).
	// icIdx indexes the engine's per-run deopt table.
	ic    []icEntry
	icIdx int32
}

// Micro opcodes for fused-run components. Values 0..15 are exactly
// ir.BinOp: a cBin component's operator is folded into the opcode, so
// the run handler never consults evalBin's second dispatch. mLoadEv and
// mStoreEv are the loads and stores whose instruction carries fMemEv:
// after the access they deliver the Load/Store event.
const (
	mCopy uint8 = 16 + iota
	mNeg
	mNot
	mLoad
	mStore
	mLoadEv
	mStoreEv
)

// mExec marks a component whose instruction carries fExecEv: the
// opcode is the component's own micro op with this bit set, so it
// falls outside the run handler's hot cases into its default arm,
// which executes the component and then delivers the Exec event.
const mExec uint8 = 0x80

// microp is one pre-decoded fused-run component: opcode (with the
// binary operator folded in), destination register, and operands as
// plain register-file indices, in 16 bytes — an eighth of cinstr.
// Immediate operands are interned into the owning function's constant
// pool, which frames carry in the tail of their register slab (see
// cfunc.consts) — operand fetch in the run handler is two branchless
// indexed loads. Indices are uint8 and every frame slab holds at
// least 256 slots (see newFrame), so the run handler indexes a
// *[256]int64 view with no bounds checks; a run whose indices don't
// fit a uint8 simply stays unfused. A component's events are folded
// into the opcode (mLoadEv/mStoreEv for the Mem event, the mExec bit
// for Exec), so no flags are carried; in remains for trap and event
// payloads.
type microp struct {
	op   uint8
	dst  uint8
	a, b uint8 // register-file indices; constants live past nregs
	in   *ir.Instr
}

// microSlots is the minimum register-slab length newFrame provisions,
// matching the uint8 micro-op index space so fused-run operand fetch
// needs no bounds checks.
const microSlots = 256

// lowerMicro pre-decodes one run component of cf, interning immediate
// operands into the function's constant pool via pool (value → index).
// Callers must pass only ops admitted by runInterior. ok is false when
// an index overflows the uint8 micro-op operand space (a function with
// more than 256 live slots); such runs stay unfused.
func (c *Code) lowerMicro(ci *cinstr, cf *cfunc, pool map[int64]int32) (microp, bool) {
	dst, a, b := ci.dst, internConst(cf, pool, ci.a), internConst(cf, pool, ci.b)
	if ci.op == cStore {
		dst = 0 // stores write memory, not a register; u.dst is unread
	}
	if dst < 0 || dst >= microSlots || a >= microSlots || b >= microSlots {
		return microp{}, false
	}
	u := microp{
		dst: uint8(dst),
		a:   uint8(a),
		b:   uint8(b),
		in:  ci.in,
	}
	switch ci.op {
	case cBin:
		u.op = uint8(ci.bin) // BinOp values occupy 0..15
	case cCopy:
		u.op = mCopy
	case cNeg:
		u.op = mNeg
	case cNot:
		u.op = mNot
	case cLoad:
		u.op = mLoad
		if ci.flags&fMemEv != 0 {
			u.op = mLoadEv
		}
	case cStore:
		u.op = mStore
		if ci.flags&fMemEv != 0 {
			u.op = mStoreEv
		}
	}
	if ci.flags&fExecEv != 0 {
		u.op |= mExec
	}
	return u, true
}

// internConst resolves a coperand to a register-file index: a register
// operand is its own index, and an immediate is interned into cf's
// constant pool (deduplicated through pool), whose values frames
// expose read-only past nregs. Unused operands (imm 0 on unary ops)
// intern harmlessly: the run handler loads both operand slots
// unconditionally and ignores what the opcode doesn't consume.
func internConst(cf *cfunc, pool map[int64]int32, o coperand) int32 {
	if o.reg != regNone {
		return o.reg
	}
	if idx, ok := pool[o.imm]; ok {
		return idx
	}
	idx := int32(cf.nregs + len(cf.consts))
	cf.consts = append(cf.consts, o.imm)
	pool[o.imm] = idx
	return idx
}

// cfunc is the compiled image of one function.
type cfunc struct {
	fn      *ir.Function
	entry   int32 // PC of the entry block's first instruction
	nregs   int
	params  []int32   // register indices receiving arguments
	entryB  *ir.Block // BlockEnter payload for the entry block
	entryEv bool      // entry block's BlockEnter is masked on

	// consts is the function's fused-run constant pool: frames carry
	// these values read-only in regs[nregs : nregs+len(consts)], so
	// micro-op operands are uniform register-file indices.
	consts []int64
}

// Code is an immutable compiled program image. Obtain one with
// Compile or CompileWith; share it freely between concurrent
// executions.
type Code struct {
	prog       *ir.Program
	code       []cinstr
	funcs      []*cfunc
	main       *cfunc
	maskDigest string
	cfgDigest  string
	numICs     int
	fused      int
	noFast     bool
}

// Prog returns the program this image was compiled from.
func (c *Code) Prog() *ir.Program { return c.prog }

// Len returns the number of compiled instructions.
func (c *Code) Len() int { return len(c.code) }

// MaskDigest returns the content digest of the instrumentation masks
// this image was compiled from (Masks.Digest, computed once at
// Compile).
func (c *Code) MaskDigest() string { return c.maskDigest }

// ConfigDigest returns the content digest of the full compile
// configuration: instrumentation masks plus speculative options
// (inline-cache seeding and fusion). Two images of one program are
// interchangeable iff their config digests match, which is how the
// artifact cache keys compiled images and how the adaptive
// speculation manager fingerprints a generation's deployed
// configuration — refining a callee-set fact changes the IC seeds and
// therefore the digest.
func (c *Code) ConfigDigest() string { return c.cfgDigest }

// ICSites returns the number of indirect call/spawn sites seeded with
// an inline cache.
func (c *Code) ICSites() int { return c.numICs }

// FusedInstrs returns the number of superinstructions the peephole
// pass baked into this image.
func (c *Code) FusedInstrs() int { return c.fused }

// NoFastPath reports whether this image was compiled with the inline
// tracer fast paths disabled (CompileOptions.DisableFastPath).
func (c *Code) NoFastPath() bool { return c.noFast }

// icMaxEntries bounds inline-cache polymorphism: sites whose likely
// callee set is larger stay generic (a megamorphic cache would scan
// more entries than the generic decode path costs).
const icMaxEntries = 4

// CompileOptions carries the speculative compilation inputs. The zero
// value means: fusion on, no inline caches (no seeds).
type CompileOptions struct {
	// Callees maps indirect call/spawn instruction IDs to their likely
	// callee function IDs (profiled invariants.DB.Callees). Sites with
	// 1..icMaxEntries entries are seeded with an inline cache;
	// arity-incompatible entries are dropped so that mis-arity calls
	// still trap through the generic path.
	Callees map[int][]int
	// DisableIC and DisableFusion are debug toggles (cmd/oha -ic=off,
	// -fusion=off) that switch the respective optimization off.
	DisableIC     bool
	DisableFusion bool
	// DisableFastPath compiles an image whose engine never arms the
	// inline tracer fast paths (FastTracer is ignored; every event is
	// an interface call). Like the other toggles it is part of the
	// config digest: the fast path never changes analysis results, but
	// keying it keeps A/B comparisons honest about which image ran.
	DisableFastPath bool
}

// Digest returns a content digest of the options, normalized so that
// configurations producing identical images digest identically
// (DisableIC and an empty seed map are the same configuration).
func (o CompileOptions) Digest() string {
	h := sha256.New()
	var n [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	if o.DisableFusion {
		h.Write([]byte{0})
	} else {
		h.Write([]byte{1})
	}
	if o.DisableFastPath {
		h.Write([]byte{0})
	} else {
		h.Write([]byte{1})
	}
	if o.DisableIC || len(o.Callees) == 0 {
		h.Write([]byte{0})
		return hex.EncodeToString(h.Sum(nil))
	}
	h.Write([]byte{1})
	sites := make([]int, 0, len(o.Callees))
	for s := range o.Callees {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	for _, s := range sites {
		fids := append([]int(nil), o.Callees[s]...)
		sort.Ints(fids)
		put(uint64(s))
		put(uint64(len(fids)))
		for _, f := range fids {
			put(uint64(f))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lowerOperand pre-resolves one IR operand.
func lowerOperand(op ir.Operand) coperand {
	switch op.Kind {
	case ir.OperConst:
		return coperand{reg: regNone, imm: op.Const}
	case ir.OperVar:
		return coperand{reg: int32(op.Var.ID)}
	case ir.OperGlobal:
		return coperand{reg: regNone, imm: MakeAddr(GlobalObj, int64(op.Global.ID))}
	case ir.OperFunc:
		return coperand{reg: regNone, imm: MakeFunc(op.Func.ID)}
	}
	return coperand{reg: regNone} // OperNone evaluates to 0, as in eval
}

// execFlagged reports whether the Exec firehose covers instruction id
// under m.
func execFlagged(m Masks, id int) bool {
	return m.ExecAll || (m.Exec != nil && id < len(m.Exec) && m.Exec[id])
}

// nullFlagged reports whether instruction id carries a residual null
// check under m. Null checking is opt-in: a nil mask flags nothing
// (unlike masked, whose nil means "every site").
func nullFlagged(m Masks, id int) bool {
	return m.Null != nil && id < len(m.Null) && m.Null[id]
}

// Compile lowers prog under the given masks into a flat instruction
// array with default speculative options (fusion on, no inline
// caches). The result is immutable and safe for concurrent use.
func Compile(prog *ir.Program, m Masks) *Code {
	return CompileWith(prog, m, CompileOptions{})
}

// CompileWith is Compile with explicit speculative options: inline-
// cache seeds for indirect call/spawn sites and the fusion/IC debug
// toggles.
func CompileWith(prog *ir.Program, m Masks, opts CompileOptions) *Code {
	c, blockPC := newSkeleton(prog)
	c.maskDigest = m.Digest()
	sum := sha256.Sum256([]byte(c.maskDigest + "+" + opts.Digest()))
	c.cfgDigest = hex.EncodeToString(sum[:])
	c.noFast = opts.DisableFastPath
	c.applyMasks(m)
	if !opts.DisableIC {
		c.applyICs(opts.Callees)
	}
	if !opts.DisableFusion {
		c.fuse(blockPC)
	}
	return c
}

// blockLayout lays out blocks in emission order (functions, then
// blocks in function order) and returns each block's starting PC. The
// layout is a pure function of the program, which is what lets the
// image decoder (image.go) re-derive branch targets instead of
// trusting serialized PCs.
func blockLayout(prog *ir.Program) []int32 {
	blockPC := make([]int32, len(prog.Blocks))
	pc := int32(0)
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			blockPC[b.ID] = pc
			pc += int32(len(b.Instrs))
		}
	}
	return blockPC
}

// newSkeleton lowers prog into its compiled skeleton: everything that
// is a pure function of the IR — opcodes, operands, branch targets,
// call arguments, direct-call targets — with no event flags, no inline
// caches, and no fusion. CompileWith layers those on via applyMasks /
// applyICs / fuse; the image decoder layers them on from a serialized
// image instead, after validating each against this same skeleton.
func newSkeleton(prog *ir.Program) (*Code, []int32) {
	c := &Code{
		prog:  prog,
		code:  make([]cinstr, 0, len(prog.Instrs)),
		funcs: make([]*cfunc, len(prog.Funcs)),
	}
	blockPC := blockLayout(prog)
	for _, f := range prog.Funcs {
		cf := &cfunc{
			fn:     f,
			entry:  blockPC[f.Entry.ID],
			nregs:  len(f.Vars),
			entryB: f.Entry,
		}
		for _, p := range f.Params {
			cf.params = append(cf.params, int32(p.ID))
		}
		c.funcs[f.ID] = cf
	}
	if mf := prog.Main(); mf != nil {
		c.main = c.funcs[mf.ID]
	}

	for _, f := range prog.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				ci := cinstr{in: in, dst: regNone, t0: -1, t1: -1}
				if in.Dst != nil {
					ci.dst = int32(in.Dst.ID)
				}
				ci.a = lowerOperand(in.A)
				ci.b = lowerOperand(in.B)
				switch in.Op {
				case ir.OpCopy:
					ci.op = cCopy
				case ir.OpUn:
					if in.Un == ir.UnNeg {
						ci.op = cNeg
					} else {
						ci.op = cNot
					}
				case ir.OpBin:
					ci.op = cBin
					ci.bin = in.Bin
				case ir.OpAlloc:
					ci.op = cAlloc
				case ir.OpLoad:
					ci.op = cLoad
				case ir.OpStore:
					ci.op = cStore
				case ir.OpLock:
					ci.op = cLock
				case ir.OpUnlock:
					ci.op = cUnlock
				case ir.OpCall, ir.OpSpawn:
					if in.Op == ir.OpCall {
						ci.op = cCall
						ci.nrun = 1
					} else {
						ci.op = cSpawn
					}
					if in.Callee != nil {
						ci.fn = c.funcs[in.Callee.ID]
					}
					if len(in.Args) > 0 {
						ci.args = make([]coperand, len(in.Args))
						for i, a := range in.Args {
							ci.args[i] = lowerOperand(a)
						}
					}
				case ir.OpJoin:
					ci.op = cJoin
				case ir.OpRet:
					ci.op = cRet
					ci.nrun = 1
				case ir.OpJmp:
					ci.op = cJmp
					s0 := blk.Succs[0]
					ci.t0 = blockPC[s0.ID]
					ci.b0 = s0
				case ir.OpBr:
					ci.op = cBr
					s0, s1 := blk.Succs[0], blk.Succs[1]
					ci.t0, ci.t1 = blockPC[s0.ID], blockPC[s1.ID]
					ci.b0, ci.b1 = s0, s1
				case ir.OpPrint:
					ci.op = cPrint
				case ir.OpInput:
					ci.op = cInput
				case ir.OpNInputs:
					ci.op = cNInputs
				default:
					ci.op = cInvalid
				}
				c.code = append(c.code, ci)
			}
		}
	}
	return c, blockPC
}

// applyMasks bakes the per-site instrumentation masks into per-
// instruction flag bits and per-function entry-block bits.
func (c *Code) applyMasks(m Masks) {
	for _, cf := range c.funcs {
		cf.entryEv = masked(m.Block, cf.entryB.ID)
	}
	for pc := range c.code {
		ci := &c.code[pc]
		if execFlagged(m, ci.in.ID) {
			ci.flags |= fExecEv
		}
		switch ci.op {
		case cLoad, cStore:
			if masked(m.Mem, ci.in.ID) {
				ci.flags |= fMemEv
			}
			if nullFlagged(m, ci.in.ID) {
				ci.flags |= fNullEv
			}
		case cLock, cUnlock:
			if masked(m.Sync, ci.in.ID) {
				ci.flags |= fSyncEv
			}
		case cJmp:
			if masked(m.Block, ci.b0.ID) {
				ci.flags |= fBlkEv0
			}
		case cBr:
			if masked(m.Block, ci.b0.ID) {
				ci.flags |= fBlkEv0
			}
			if masked(m.Block, ci.b1.ID) {
				ci.flags |= fBlkEv1
			}
		}
	}
}

// applyICs seeds inline caches at indirect call/spawn sites with
// likely-callee seeds, in PC order (which fixes icIdx assignment and
// therefore the image's deopt-table layout).
func (c *Code) applyICs(callees map[int][]int) {
	for pc := range c.code {
		ci := &c.code[pc]
		if (ci.op != cCall && ci.op != cSpawn) || ci.fn != nil {
			continue
		}
		if seeds := callees[ci.in.ID]; len(seeds) >= 1 && len(seeds) <= icMaxEntries {
			c.seedIC(ci, ci.in, seeds)
		}
	}
}

// fuse runs superinstruction fusion per block, interning immediate
// micro-op operands into a per-function constant pool.
func (c *Code) fuse(blockPC []int32) {
	for _, f := range c.prog.Funcs {
		cf := c.funcs[f.ID]
		pool := map[int64]int32{}
		for _, blk := range f.Blocks {
			start := blockPC[blk.ID]
			c.fuseBlock(cf, pool, start, start+int32(len(blk.Instrs)))
		}
	}
}

// seedIC bakes an inline cache into one indirect call/spawn site.
// Entries are sorted by function ID (deterministic images), bounds-
// checked, and filtered to arity-compatible targets so that a
// mis-arity dispatch misses the cache and traps through the generic
// path exactly as without the cache.
func (c *Code) seedIC(ci *cinstr, in *ir.Instr, seeds []int) {
	fids := append([]int(nil), seeds...)
	sort.Ints(fids)
	ic := make([]icEntry, 0, len(fids))
	for _, fid := range fids {
		if fid < 0 || fid >= len(c.funcs) {
			continue
		}
		tf := c.funcs[fid]
		if len(tf.params) != len(in.Args) {
			continue
		}
		ic = append(ic, icEntry{val: MakeFunc(fid), fn: tf})
	}
	if len(ic) == 0 {
		return
	}
	ci.ic = ic
	ci.icIdx = int32(c.numICs)
	c.numICs++
}

// cRunMax bounds a fused run's component count, which bounds the
// micro-op stream each head carries. A run that straddles a quantum
// or step-limit boundary splits there at runtime, so the cap is a
// size bound, not a correctness requirement; matching the default
// quantum (32) lets a whole scheduling slice retire in one dispatch
// on straight-line code.
const cRunMax = 32

// fuseBlock rewrites maximal straight-line runs of simple ops within
// one block into cRun superinstructions dispatched once. Every
// position in the run becomes a head of the corresponding suffix run
// (all sharing one micro-op array), because a run that no longer fits
// the quantum or step budget splits at the boundary: the admitted
// prefix retires in one dispatch and the next slice resumes mid-run,
// landing on the suffix head that covers exactly the remainder. Run
// interiors are never jump targets (branches land on
// block starts) and never return targets (a return lands on the
// instruction after its call, and a call only ever ends a run, so the
// resume point is the first instruction past the run), making the
// rewrite invisible to control flow.
//
// Legality: no component but the last may yield, block, or deliver
// anything but its own Mem and Exec events, and none may carry a
// residual null check, whose recovery path the run handler does not
// replicate. An interior component delivers its events right after it
// executes, in the unfused order (Mem, then Exec), and when a delivery
// can have raised the abort flag the handler cuts the run right after
// the component, so the post-run abort poll stops where the unfused
// poll-after-each would. The last component may instead be a
// branch/jump or a call/return. A branch or jump is pre-decoded into
// every head (predecodeTerm) and taken inline with its BlockEnter; a
// call or return is replicated from its raw instruction, frame
// transition and Call/Ret events included. Either way its events are
// delivered immediately before the same post-run abort poll. Lock,
// unlock, join, spawn, and the remaining rare ops never join a run:
// they yield the scheduling slice, block, or trap, so the instruction
// after them could never execute in the same dispatch anyway.
func (c *Code) fuseBlock(cf *cfunc, pool map[int64]int32, start, end int32) {
	pc := start
	for pc < end {
		if !runInterior(&c.code[pc]) {
			pc++
			continue
		}
		n := int32(1)
		for pc+n < end && n < cRunMax {
			ci := &c.code[pc+n]
			if runInterior(ci) {
				n++
				continue
			}
			if runTerminator(ci) {
				n++
			}
			break
		}
		if n >= 2 {
			m := n
			term := &c.code[pc+n-1]
			if !runInterior(term) {
				m = n - 1 // event-carrying terminator stays a raw cinstr
			}
			run := make([]microp, m)
			ok := true
			for i := int32(0); i < m && ok; i++ {
				run[i], ok = c.lowerMicro(&c.code[pc+i], cf, pool)
			}
			if ok {
				// Every position becomes a head of the run's suffix,
				// sharing one micro-op array: a run split by a budget
				// boundary resumes at base+k straight into the suffix
				// run covering the rest, so split tails stay fused
				// instead of retiring one instruction per dispatch.
				for i := int32(0); i < m; i++ {
					h := &c.code[pc+i]
					h.op = cRun
					h.nrun = n - i
					h.run = run[i:m]
					if m < n {
						predecodeTerm(h, term)
					}
				}
				c.fused++
			}
		}
		pc += n
	}
}

// runInterior reports whether ci may appear anywhere in a fused run:
// a simple data op whose only flag is its Exec event, or a load/store
// whose only flags are its Mem and Exec events.
func runInterior(ci *cinstr) bool {
	switch ci.op {
	case cBin, cCopy, cNeg, cNot:
		return ci.flags&^fExecEv == 0
	case cLoad, cStore:
		return ci.flags&^(fMemEv|fExecEv) == 0
	}
	return false
}

// runTerminator reports whether ci may end a fused run even though it
// fires events: a branch/jump (pre-decoded into the run's heads, its
// condition read by uint8 register index) or a call/return (whose
// Call/Ret events and frame transitions the handler replicates — both
// are safe in last position because their events are delivered
// immediately before the same post-run abort poll an unfused execution
// would reach). An Exec-carrying terminator stays unfused, so the
// terminator paths deliver no Exec event. Lock, unlock, join, and
// spawn never join a run: they yield the scheduling slice, so the
// following instruction could never execute in the same dispatch
// anyway.
func runTerminator(ci *cinstr) bool {
	if ci.flags&fExecEv != 0 {
		return false
	}
	switch ci.op {
	case cBr:
		return ci.a.reg < microSlots
	case cJmp, cCall, cRet:
		return true
	}
	return false
}

// predecodeTerm copies the terminator of h's run into h when it is a
// branch or jump: its targets, its condition register, and the
// BlockEnter payloads its flags enable (nil: no event). A branch on a
// constant always goes one way, so it is stored as a jump there. The
// image decoder derives these fields with this same function, from the
// skeleton and the terminator's own flags.
func predecodeTerm(h, term *cinstr) {
	if term.op != cBr && term.op != cJmp {
		return
	}
	t0, t1, b0, b1 := term.t0, term.t1, term.b0, term.b1
	if term.flags&fBlkEv0 == 0 {
		b0 = nil
	}
	if term.flags&fBlkEv1 == 0 {
		b1 = nil
	}
	if term.op == cBr && term.a.reg == regNone {
		if term.a.imm == 0 {
			t0, b0 = t1, b1
		}
		t1, b1 = -1, nil
	}
	h.t0, h.t1, h.b0, h.b1 = t0, t1, b0, b1
	if t1 >= 0 {
		h.cond = uint8(term.a.reg)
	}
}
