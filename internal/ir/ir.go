// Package ir defines the intermediate representation that every
// analysis in this repository operates on: a program is a set of
// global memory cells plus functions, each function a control-flow
// graph of basic blocks holding three-address instructions.
//
// The IR plays the role LLVM bitcode plays for Giri/OptSlice and Java
// bytecode plays for Chord/RoadRunner/OptFT in the paper: the common
// substrate shared by the static analyses (which walk it) and the
// dynamic analyses (which execute it under instrumentation).
//
// Memory model: local variables (Var) are registers private to one
// activation of one thread — the frontend promotes address-taken
// locals to heap allocations, so every memory access that can be
// shared between threads appears as an explicit Load/Store/Lock/Unlock
// on a global or heap address. This is the property that lets the race
// detector instrument exactly the Load/Store/sync instructions.
package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
)

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Col) }

// Op enumerates instruction opcodes.
type Op uint8

// Instruction opcodes.
const (
	OpInvalid Op = iota
	OpCopy       // Dst = A
	OpUn         // Dst = UnOp A
	OpBin        // Dst = A BinOp B
	OpAlloc      // Dst = pointer to A fresh heap words (A = size)
	OpLoad       // Dst = *A
	OpStore      // *A = B
	OpCall       // Dst? = Callee(Args...); Callee direct or A = fn value
	OpSpawn      // Dst? = thread handle of new thread running Callee(Args...)
	OpJoin       // wait for thread A to finish
	OpLock       // acquire mutex at address A
	OpUnlock     // release mutex at address A
	OpRet        // return A? from function
	OpJmp        // goto Block.Succs[0]
	OpBr         // if A != 0 goto Succs[0] else Succs[1]
	OpPrint      // emit A to the program's output
	OpInput      // Dst = input word A (0 if out of range)
	OpNInputs    // Dst = number of input words
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpCopy:    "copy",
	OpUn:      "un",
	OpBin:     "bin",
	OpAlloc:   "alloc",
	OpLoad:    "load",
	OpStore:   "store",
	OpCall:    "call",
	OpSpawn:   "spawn",
	OpJoin:    "join",
	OpLock:    "lock",
	OpUnlock:  "unlock",
	OpRet:     "ret",
	OpJmp:     "jmp",
	OpBr:      "br",
	OpPrint:   "print",
	OpInput:   "input",
	OpNInputs: "ninputs",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op(" + strconv.Itoa(int(o)) + ")"
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	UnNeg UnOp = iota // arithmetic negation
	UnNot             // logical not (x == 0)
)

func (u UnOp) String() string {
	if u == UnNeg {
		return "-"
	}
	return "!"
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	BinAdd BinOp = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinLt
	BinLe
	BinGt
	BinGe
	BinEq
	BinNe
	BinAnd // bitwise &
	BinOr  // bitwise |
	BinXor
	BinShl
	BinShr
)

var binNames = [...]string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&", "|", "^", "<<", ">>"}

func (b BinOp) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return "bin(" + strconv.Itoa(int(b)) + ")"
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OperNone   OperandKind = iota
	OperConst              // integer literal
	OperVar                // local register
	OperGlobal             // the *address* of a global cell
	OperFunc               // a function value
)

// Operand is an instruction input: a constant, a local register, the
// address of a global, or a function value.
type Operand struct {
	Kind   OperandKind
	Const  int64
	Var    *Var
	Global *Global
	Func   *Function
}

// ConstOp returns a constant operand.
func ConstOp(v int64) Operand { return Operand{Kind: OperConst, Const: v} }

// VarOp returns a register operand.
func VarOp(v *Var) Operand { return Operand{Kind: OperVar, Var: v} }

// GlobalOp returns a global-address operand.
func GlobalOp(g *Global) Operand { return Operand{Kind: OperGlobal, Global: g} }

// FuncOp returns a function-value operand.
func FuncOp(f *Function) Operand { return Operand{Kind: OperFunc, Func: f} }

// IsZero reports whether the operand is unset.
func (o Operand) IsZero() bool { return o.Kind == OperNone }

func (o Operand) String() string { return string(o.appendTo(nil)) }

// appendTo appends the operand's printed form to b.
func (o Operand) appendTo(b []byte) []byte {
	switch o.Kind {
	case OperConst:
		return strconv.AppendInt(b, o.Const, 10)
	case OperVar:
		return append(b, o.Var.Name...)
	case OperGlobal:
		return append(append(b, '@'), o.Global.Name...)
	case OperFunc:
		return append(append(b, "fn:"...), o.Func.Name...)
	}
	return append(b, '_')
}

// Var is a function-local register (a named local, parameter, or
// compiler temporary). Address-taken locals never appear as Vars: the
// frontend rewrites them to heap allocations.
type Var struct {
	Name string
	ID   int // index into the function's Vars slice (frame slot)
}

// Global is a mutable global memory cell holding one word. Cells of a
// source-level global array are consecutive Globals sharing the Group
// of the first cell; pointer analyses treat a whole group as one
// abstract object (field-insensitive over arrays).
type Global struct {
	Name  string
	ID    int   // index into Program.Globals
	Init  int64 // initial value
	Group int   // ID of the first cell of this global's array (== ID for scalars)
}

// Instr is a single three-address instruction.
type Instr struct {
	ID     int // program-unique, assigned by Program.Finalize
	Op     Op
	Un     UnOp
	Bin    BinOp
	Dst    *Var
	A, B   Operand
	Args   []Operand
	Callee *Function // direct call/spawn target; nil means indirect via A
	Block  *Block
	Index  int // position within Block.Instrs
	Pos    Pos
}

// IsCallLike reports whether the instruction transfers control to a
// callee (call or spawn).
func (in *Instr) IsCallLike() bool { return in.Op == OpCall || in.Op == OpSpawn }

// IsIndirect reports whether a call/spawn resolves its callee at
// runtime through a function value.
func (in *Instr) IsIndirect() bool { return in.IsCallLike() && in.Callee == nil }

// IsMemAccess reports whether the instruction reads or writes shared
// memory (the accesses a race detector must consider).
func (in *Instr) IsMemAccess() bool { return in.Op == OpLoad || in.Op == OpStore }

// IsSync reports whether the instruction is a synchronization
// operation (lock, unlock, spawn, join).
func (in *Instr) IsSync() bool {
	switch in.Op {
	case OpLock, OpUnlock, OpSpawn, OpJoin:
		return true
	}
	return false
}

func (in *Instr) String() string { return string(in.appendTo(nil)) }

// appendBlockRef appends a block reference ("b<ID>") to b.
func appendBlockRef(b []byte, blk *Block) []byte {
	return strconv.AppendInt(append(b, 'b'), int64(blk.ID), 10)
}

// appendTo appends the instruction's printed form to b.
func (in *Instr) appendTo(b []byte) []byte {
	if in.Dst != nil {
		b = append(append(b, in.Dst.Name...), " = "...)
	}
	switch in.Op {
	case OpCopy:
		b = in.A.appendTo(b)
	case OpUn:
		b = in.A.appendTo(append(b, in.Un.String()...))
	case OpBin:
		b = in.A.appendTo(b)
		b = append(append(append(b, ' '), in.Bin.String()...), ' ')
		b = in.B.appendTo(b)
	case OpAlloc:
		b = append(in.A.appendTo(append(b, "alloc("...)), ')')
	case OpLoad:
		b = in.A.appendTo(append(b, '*'))
	case OpStore:
		b = in.A.appendTo(append(b, '*'))
		b = in.B.appendTo(append(b, " = "...))
	case OpCall, OpSpawn:
		if in.Op == OpSpawn {
			b = append(b, "spawn "...)
		}
		if in.Callee != nil {
			b = append(b, in.Callee.Name...)
		} else {
			b = append(in.A.appendTo(append(b, '(')), ')')
		}
		b = append(b, '(')
		for i, a := range in.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = a.appendTo(b)
		}
		b = append(b, ')')
	case OpJoin:
		b = in.A.appendTo(append(b, "join "...))
	case OpLock:
		b = in.A.appendTo(append(b, "lock "...))
	case OpUnlock:
		b = in.A.appendTo(append(b, "unlock "...))
	case OpRet:
		b = append(b, "ret"...)
		if !in.A.IsZero() {
			b = in.A.appendTo(append(b, ' '))
		}
	case OpJmp:
		b = appendBlockRef(append(b, "jmp "...), in.Block.Succs[0])
	case OpBr:
		b = in.A.appendTo(append(b, "br "...))
		b = appendBlockRef(append(b, ", "...), in.Block.Succs[0])
		b = appendBlockRef(append(b, ", "...), in.Block.Succs[1])
	case OpPrint:
		b = in.A.appendTo(append(b, "print "...))
	case OpInput:
		b = append(in.A.appendTo(append(b, "input("...)), ')')
	case OpNInputs:
		b = append(b, "ninputs()"...)
	default:
		b = append(b, in.Op.String()...)
	}
	return b
}

// Block is a basic block: a straight-line instruction sequence ending
// in a terminator (jmp, br, or ret).
type Block struct {
	ID     int // program-unique, assigned by Program.Finalize
	Fn     *Function
	Index  int // position within Fn.Blocks
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block
}

// Terminator returns the block's final instruction, or nil if empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return b.Instrs[len(b.Instrs)-1]
}

// Function is a single function: parameters, register file, CFG.
type Function struct {
	Name   string
	ID     int // index into Program.Funcs
	Params []*Var
	Vars   []*Var // all registers, including params; Var.ID indexes this
	Blocks []*Block
	Entry  *Block
	Pos    Pos
}

// NewVar appends a fresh register to the function and returns it.
func (f *Function) NewVar(name string) *Var {
	v := &Var{Name: name, ID: len(f.Vars)}
	f.Vars = append(f.Vars, v)
	return v
}

// NewBlock appends a fresh empty block to the function.
func (f *Function) NewBlock() *Block {
	b := &Block{Fn: f, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Program is a whole MiniLang program in IR form.
type Program struct {
	Funcs      []*Function
	Globals    []*Global
	FuncByName map[string]*Function

	Instrs []*Instr // all instructions, indexed by Instr.ID
	Blocks []*Block // all blocks, indexed by Block.ID

	digestOnce sync.Once
	digest     string
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{FuncByName: map[string]*Function{}}
}

// AddFunc registers a function in the program.
func (p *Program) AddFunc(f *Function) {
	f.ID = len(p.Funcs)
	p.Funcs = append(p.Funcs, f)
	p.FuncByName[f.Name] = f
}

// AddGlobal registers a global cell.
func (p *Program) AddGlobal(g *Global) {
	g.ID = len(p.Globals)
	p.Globals = append(p.Globals, g)
}

// Main returns the entry function, or nil if the program has none.
func (p *Program) Main() *Function { return p.FuncByName["main"] }

// Finalize assigns program-unique IDs to every block and instruction
// and fills predecessor edges. It must be called (by the frontend)
// before any analysis uses the program, and again after any pass that
// mutates the CFG.
func (p *Program) Finalize() {
	p.Instrs = p.Instrs[:0]
	p.Blocks = p.Blocks[:0]
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			b.ID = len(p.Blocks)
			p.Blocks = append(p.Blocks, b)
			b.Preds = b.Preds[:0]
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				in.ID = len(p.Instrs)
				in.Block = b
				in.Index = i
				p.Instrs = append(p.Instrs, in)
			}
			for _, s := range b.Succs {
				s.Preds = append(s.Preds, b)
			}
		}
	}
}

// String renders the whole program as readable IR.
func (p *Program) String() string { return string(p.appendTo(nil)) }

// appendTo appends the program's printed IR to b.
func (p *Program) appendTo(b []byte) []byte {
	for _, g := range p.Globals {
		b = append(append(append(b, "global @"...), g.Name...), " = "...)
		b = append(strconv.AppendInt(b, g.Init, 10), '\n')
	}
	for _, f := range p.Funcs {
		b = append(append(append(b, "\nfunc "...), f.Name...), '(')
		for i, pv := range f.Params {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, pv.Name...)
		}
		b = append(b, "):\n"...)
		for _, blk := range f.Blocks {
			b = append(appendBlockRef(append(b, "  "...), blk), ":\n"...)
			for _, in := range blk.Instrs {
				b = append(strconv.AppendInt(append(b, "    ["...), int64(in.ID), 10), "] "...)
				b = append(in.appendTo(b), '\n')
			}
		}
	}
	return b
}

// Digest returns the SHA-256 (hex) of the program's printed IR: the
// program's identity in artifact cache keys and compiled images. It is
// computed on first use and memoized on the program (safe for
// concurrent callers), so a program must not change after its first
// Digest.
func (p *Program) Digest() string {
	p.digestOnce.Do(func() {
		sum := sha256.Sum256(p.appendTo(nil))
		p.digest = hex.EncodeToString(sum[:])
	})
	return p.digest
}
