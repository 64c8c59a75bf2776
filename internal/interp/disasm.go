// Disassembler for compiled images: `oha dump` renders a Code (fresh
// or decoded from a .ohc file) as an annotated listing — per-PC
// opcodes and operands, baked event-flag bits, inline-cache seeds,
// fused-run structure, and source-line markers. This is the debugging
// story for mask and elision bugs: what the optimistic compiler
// actually baked into an image is visible instead of inferred.
package interp

import (
	"fmt"
	"io"
	"strings"
)

// opNames maps compiled opcodes to their listing mnemonics.
var opNames = [...]string{
	cInvalid: "invalid",
	cBin:     "bin",
	cCopy:    "copy",
	cLoad:    "load",
	cStore:   "store",
	cBr:      "br",
	cJmp:     "jmp",
	cRun:     "run",
	cCall:    "call",
	cSpawn:   "spawn",
	cNeg:     "neg",
	cNot:     "not",
	cAlloc:   "alloc",
	cLock:    "lock",
	cUnlock:  "unlock",
	cJoin:    "join",
	cRet:     "ret",
	cPrint:   "print",
	cInput:   "input",
	cNInputs: "ninputs",
}

func (op copcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// flagString renders the baked event-flag bits: M (mem event),
// S (sync event), X (exec firehose), 0/1 (BlockEnter on target 0/1),
// N (residual null check).
func flagString(flags uint8) string {
	if flags == 0 {
		return "......"
	}
	b := []byte("......")
	if flags&fMemEv != 0 {
		b[0] = 'M'
	}
	if flags&fSyncEv != 0 {
		b[1] = 'S'
	}
	if flags&fExecEv != 0 {
		b[2] = 'X'
	}
	if flags&fBlkEv0 != 0 {
		b[3] = '0'
	}
	if flags&fBlkEv1 != 0 {
		b[4] = '1'
	}
	if flags&fNullEv != 0 {
		b[5] = 'N'
	}
	return string(b)
}

// operandString renders a pre-resolved operand: a named register or a
// decoded immediate.
func (c *Code) operandString(cf *cfunc, o coperand) string {
	if o.reg != regNone {
		return regName(cf, int32(o.reg))
	}
	return FormatValue(o.imm)
}

// regName renders a register-file index: the variable it holds, or a
// constant-pool slot.
func regName(cf *cfunc, reg int32) string {
	if int(reg) < len(cf.fn.Vars) {
		return fmt.Sprintf("r%d(%s)", reg, cf.fn.Vars[reg].Name)
	}
	ci := int(reg) - cf.nregs
	if ci >= 0 && ci < len(cf.consts) {
		return fmt.Sprintf("k%d(%s)", ci, FormatValue(cf.consts[ci]))
	}
	return fmt.Sprintf("r%d", reg)
}

// microName renders a micro opcode; a load/store that delivers its
// Mem event is marked ".ev", and a component that delivers its Exec
// event ".x".
func microName(op uint8) string {
	if op&mExec != 0 {
		return microName(op&^mExec) + ".x"
	}
	switch op {
	case mCopy:
		return "copy"
	case mNeg:
		return "neg"
	case mNot:
		return "not"
	case mLoad:
		return "load"
	case mStore:
		return "store"
	case mLoadEv:
		return "load.ev"
	case mStoreEv:
		return "store.ev"
	}
	return fmt.Sprintf("bin.%d", op) // 0..15: ir.BinOp folded into the opcode
}

// Disasm writes an annotated listing of the compiled image to w:
// header (digests, speculation stats), then per-function sections with
// block labels, flag columns, source-line markers, inline-cache seeds,
// and fused-run micro-op streams.
func (c *Code) Disasm(w io.Writer) error {
	bw := &strings.Builder{}
	fmt.Fprintf(bw, "; program  %s\n", c.prog.Digest())
	fmt.Fprintf(bw, "; masks    %s\n", c.maskDigest)
	fmt.Fprintf(bw, "; config   %s\n", c.cfgDigest)
	fmt.Fprintf(bw, "; funcs=%d instrs=%d ic-sites=%d fused-runs=%d\n",
		len(c.funcs), len(c.code), c.numICs, c.fused)

	blockPC := blockLayout(c.prog)
	for _, f := range c.prog.Funcs {
		cf := c.funcs[f.ID]
		params := make([]string, len(cf.params))
		for i, p := range cf.params {
			params[i] = regName(cf, p)
		}
		fmt.Fprintf(bw, "\nfunc %s(%s)  ; entry=%d regs=%d consts=%d",
			f.Name, strings.Join(params, ", "), cf.entry, cf.nregs, len(cf.consts))
		if cf.entryEv {
			fmt.Fprintf(bw, " entry-block-event")
		}
		fmt.Fprintln(bw)
		lastLine := -1
		for _, blk := range f.Blocks {
			fmt.Fprintf(bw, "b%d:\n", blk.ID)
			start := blockPC[blk.ID]
			for i, in := range blk.Instrs {
				pc := start + int32(i)
				ci := &c.code[pc]
				if in.Pos.Line > 0 && in.Pos.Line != lastLine {
					fmt.Fprintf(bw, "                ; line %d\n", in.Pos.Line)
					lastLine = in.Pos.Line
				}
				fmt.Fprintf(bw, "  %5d  %s  %-7s", pc, flagString(ci.flags), ci.op)
				c.disasmOperands(bw, cf, ci)
				fmt.Fprintln(bw)
			}
		}
	}
	_, err := io.WriteString(w, bw.String())
	return err
}

func (c *Code) disasmOperands(bw *strings.Builder, cf *cfunc, ci *cinstr) {
	dst := ""
	if ci.dst != regNone {
		dst = regName(cf, ci.dst) + " = "
	}
	switch ci.op {
	case cBin:
		fmt.Fprintf(bw, " %s%s %v %s", dst, c.operandString(cf, ci.a), ci.bin, c.operandString(cf, ci.b))
	case cCopy, cNeg, cNot, cAlloc, cLoad, cInput:
		fmt.Fprintf(bw, " %s%s", dst, c.operandString(cf, ci.a))
	case cNInputs:
		fmt.Fprintf(bw, " %s", strings.TrimSuffix(dst, " = "))
	case cStore:
		fmt.Fprintf(bw, " *%s = %s", c.operandString(cf, ci.a), c.operandString(cf, ci.b))
	case cJmp:
		fmt.Fprintf(bw, " -> %d (b%d)", ci.t0, ci.b0.ID)
	case cBr:
		fmt.Fprintf(bw, " %s ? %d (b%d) : %d (b%d)", c.operandString(cf, ci.a), ci.t0, ci.b0.ID, ci.t1, ci.b1.ID)
	case cCall, cSpawn:
		args := make([]string, len(ci.args))
		for i, a := range ci.args {
			args[i] = c.operandString(cf, a)
		}
		target := c.operandString(cf, ci.a)
		if ci.fn != nil {
			target = ci.fn.fn.Name
		}
		fmt.Fprintf(bw, " %s%s(%s)", dst, target, strings.Join(args, ", "))
		if ci.ic != nil {
			seeds := make([]string, len(ci.ic))
			for i, e := range ci.ic {
				seeds[i] = e.fn.fn.Name
			}
			fmt.Fprintf(bw, "  ; ic{%s} slot=%d", strings.Join(seeds, ","), ci.icIdx)
		}
	case cLock, cUnlock, cJoin, cPrint:
		fmt.Fprintf(bw, " %s", c.operandString(cf, ci.a))
	case cRet:
		if ci.a.reg != regNone || ci.a.imm != 0 {
			fmt.Fprintf(bw, " %s", c.operandString(cf, ci.a))
		}
	case cRun:
		fmt.Fprintf(bw, " n=%d micros=%d", ci.nrun, len(ci.run))
		parts := make([]string, len(ci.run))
		for i, u := range ci.run {
			parts[i] = fmt.Sprintf("%s r%d<-r%d,r%d", microName(u.op), u.dst, u.a, u.b)
		}
		fmt.Fprintf(bw, "  ; fused{%s}", strings.Join(parts, "; "))
	}
}
