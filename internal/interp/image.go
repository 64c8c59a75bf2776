// Serialized compiled images (.ohc). EncodeImage/DecodeImage give a
// Code a stable, versioned binary form so the artifact cache's disk
// tier (and `oha compile -o`) can persist compiled bytecode across
// process restarts: a warm daemon admits its first job with zero
// compile work.
//
// Design rule: the image carries only what the program IR cannot
// determine — the baked event-flag bits, the seeded inline-cache
// entries, the fused-run structure with its micro-op streams and
// interned constant pools, and the mask/config digests that guard
// against stale speculation. Everything derivable (operand lowering,
// branch-target PCs, call arguments, direct-call targets, source-
// instruction bindings) is reconstructed from the program the image is
// bound to, through the same newSkeleton pass the compiler uses, and
// the serialized fields are validated against that skeleton item by
// item. A corrupted or adversarial image therefore cannot alias
// out-of-bounds registers, jump into the middle of a block, or bind a
// micro-op to the wrong instruction: the worst it can do is fail to
// decode.
//
// Versioning: the format is identified by a magic string and a version
// number; any mismatch is an error (no cross-version migration — a
// stale disk artifact is simply recompiled, which the cache treats as
// an ordinary miss). The image additionally embeds the SHA-256 of the
// program's printed IR, so an image is only ever rebound to the exact
// program it was compiled from.
package interp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"oha/internal/ir"
)

// imageMagic and imageVersion identify the .ohc image format. Bump
// imageVersion on any layout change: decoders reject other versions
// and the caller recompiles.
var imageMagic = [6]byte{'O', 'H', 'C', 'I', 'M', 'G'}

const imageVersion uint16 = 4

// ErrImage wraps every image decode failure, so callers can
// distinguish "stale/corrupt artifact" from other errors with
// errors.Is.
var ErrImage = errors.New("interp: bad compiled image")

func imgErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrImage, fmt.Sprintf(format, args...))
}

// imageWriter accumulates the little-endian image body.
type imageWriter struct {
	buf []byte
}

func (w *imageWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *imageWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *imageWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *imageWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *imageWriter) hexDigest(s string) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != sha256.Size {
		// Digests are always produced by sha256+hex in this package; a
		// mismatch means the Code was hand-built (tests). Pad/truncate
		// deterministically rather than failing Encode.
		padded := make([]byte, sha256.Size)
		copy(padded, raw)
		raw = padded
	}
	w.buf = append(w.buf, raw...)
}

// imageReader consumes the image body with explicit bounds checks: any
// over-read degrades to an error, never a panic.
type imageReader struct {
	data []byte
	off  int
}

func (r *imageReader) remaining() int { return len(r.data) - r.off }

func (r *imageReader) u8() (uint8, error) {
	if r.remaining() < 1 {
		return 0, imgErr("truncated at offset %d", r.off)
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *imageReader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, imgErr("truncated at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v, nil
}

func (r *imageReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, imgErr("truncated at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *imageReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, imgErr("truncated at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *imageReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, imgErr("truncated at offset %d", r.off)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// EncodeImage serializes the compiled image to its portable .ohc
// binary form. Encoding is a pure function of the image's content, so
// encode→decode→re-encode is byte-identical — the round-trip
// determinism gate in CI relies on this.
func (c *Code) EncodeImage() []byte {
	w := &imageWriter{buf: make([]byte, 0, 64+8*len(c.code))}
	w.buf = append(w.buf, imageMagic[:]...)
	w.u16(imageVersion)
	w.hexDigest(c.prog.Digest())
	w.hexDigest(c.maskDigest)
	w.hexDigest(c.cfgDigest)
	w.u32(uint32(c.numICs))
	w.u32(uint32(c.fused))
	if c.noFast {
		w.u8(1)
	} else {
		w.u8(0)
	}

	w.u32(uint32(len(c.funcs)))
	for _, cf := range c.funcs {
		if cf.entryEv {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u32(uint32(len(cf.consts)))
		for _, v := range cf.consts {
			w.u64(uint64(v))
		}
	}

	w.u32(uint32(len(c.code)))
	suffixLeft := 0 // remaining suffix heads of the chain in progress
	for pc := range c.code {
		ci := &c.code[pc]
		w.u8(uint8(ci.op))
		w.u8(ci.flags)
		if ci.op == cRun {
			w.u8(uint8(ci.nrun))
			if suffixLeft > 0 {
				w.u8(0) // suffix head: run array shared with the base
				suffixLeft--
			} else {
				w.u8(1) // base head: carries the micro-op stream
				w.u8(uint8(len(ci.run)))
				for _, u := range ci.run {
					w.u8(u.op)
					w.u8(u.dst)
					w.u8(u.a)
					w.u8(u.b)
				}
				suffixLeft = len(ci.run) - 1
			}
		}
		// Indirect call/spawn sites always carry an IC record (possibly
		// empty) — presence is decided by the derivable skeleton, so the
		// decoder knows to expect one without trusting the stream.
		if (ci.op == cCall || ci.op == cSpawn) && ci.fn == nil {
			w.u8(uint8(len(ci.ic)))
			for _, e := range ci.ic {
				w.u32(uint32(e.fn.fn.ID))
			}
		}
	}
	return w.buf
}

// microOpFor returns the micro opcode a fused component of ci must
// carry when its instruction has no events, or ok=false when ci's
// opcode is not fusable. A load or store with its Mem event on carries
// the event variant instead (see memEvOp), and any component with its
// Exec event on additionally sets mExec.
func microOpFor(ci *cinstr) (uint8, bool) {
	switch ci.op {
	case cBin:
		return uint8(ci.bin), true
	case cCopy:
		return mCopy, true
	case cNeg:
		return mNeg, true
	case cNot:
		return mNot, true
	case cLoad:
		return mLoad, true
	case cStore:
		return mStore, true
	}
	return 0, false
}

// memEvOp returns the event-delivering variant of a load/store micro
// opcode, and ok=false for every other micro opcode.
func memEvOp(op uint8) (uint8, bool) {
	switch op {
	case mLoad:
		return mLoadEv, true
	case mStore:
		return mStoreEv, true
	}
	return 0, false
}

// headFlags returns the only event flags a fused head whose micro op
// is u may carry: its Mem and Exec events exactly when u delivers them.
func headFlags(u uint8) uint8 {
	var f uint8
	if u&mExec != 0 {
		f = fExecEv
	}
	if u &^= mExec; u == mLoadEv || u == mStoreEv {
		f |= fMemEv
	}
	return f
}

// validOperandIndex reports whether a micro-op operand index is a
// legal encoding of the skeleton operand o in function cf: a register
// operand must be its own register index, and an immediate must name a
// constant-pool slot holding exactly that immediate.
func validOperandIndex(cf *cfunc, o coperand, idx uint8) bool {
	if o.reg != regNone {
		return int32(idx) == o.reg
	}
	i := int(idx) - cf.nregs
	return i >= 0 && i < len(cf.consts) && cf.consts[i] == o.imm
}

// DecodeImage rebinds a serialized .ohc image to prog. The image must
// have been encoded from a Code compiled from a program with identical
// printed IR; every serialized field is validated against the freshly
// derived skeleton, so malformed, truncated, or version-skewed input
// returns an error (wrapping ErrImage) and never yields a Code that
// indexes out of bounds.
func DecodeImage(prog *ir.Program, data []byte) (*Code, error) {
	r := &imageReader{data: data}
	magic, err := r.bytes(len(imageMagic))
	if err != nil {
		return nil, err
	}
	if [6]byte(magic) != imageMagic {
		return nil, imgErr("not an ohc image (bad magic)")
	}
	ver, err := r.u16()
	if err != nil {
		return nil, err
	}
	if ver != imageVersion {
		return nil, imgErr("image version %d, this build reads %d", ver, imageVersion)
	}
	rawProg, err := r.bytes(sha256.Size)
	if err != nil {
		return nil, err
	}
	if hex.EncodeToString(rawProg) != prog.Digest() {
		return nil, imgErr("image was compiled from a different program")
	}
	rawMask, err := r.bytes(sha256.Size)
	if err != nil {
		return nil, err
	}
	rawCfg, err := r.bytes(sha256.Size)
	if err != nil {
		return nil, err
	}
	numICs, err := r.u32()
	if err != nil {
		return nil, err
	}
	fused, err := r.u32()
	if err != nil {
		return nil, err
	}
	noFast, err := r.u8()
	if err != nil {
		return nil, err
	}
	if noFast > 1 {
		return nil, imgErr("bad fast-path byte %d", noFast)
	}

	c, blockPC := newSkeleton(prog)
	c.maskDigest = hex.EncodeToString(rawMask)
	c.cfgDigest = hex.EncodeToString(rawCfg)
	c.noFast = noFast == 1

	nfuncs, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(nfuncs) != len(c.funcs) {
		return nil, imgErr("image has %d functions, program has %d", nfuncs, len(c.funcs))
	}
	for fi, cf := range c.funcs {
		ev, err := r.u8()
		if err != nil {
			return nil, err
		}
		if ev > 1 {
			return nil, imgErr("func %d: bad entry-event byte %d", fi, ev)
		}
		cf.entryEv = ev == 1
		nconsts, err := r.u32()
		if err != nil {
			return nil, err
		}
		// The compiler interns at most two constants per instruction of
		// the function; anything larger cannot be a legitimate pool.
		finstrs := 0
		for _, b := range cf.fn.Blocks {
			finstrs += len(b.Instrs)
		}
		if int(nconsts) > 2*finstrs {
			return nil, imgErr("func %d: constant pool of %d exceeds bound %d", fi, nconsts, 2*finstrs)
		}
		if nconsts > 0 {
			cf.consts = make([]int64, nconsts)
			for i := range cf.consts {
				v, err := r.u64()
				if err != nil {
					return nil, err
				}
				cf.consts[i] = int64(v)
			}
		}
	}

	// Per-PC block end, for validating that fused runs stay inside one
	// block (run interiors must never be jump targets).
	blockEnd := make([]int32, len(c.code))
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			start, end := blockPC[b.ID], blockPC[b.ID]+int32(len(b.Instrs))
			for pc := start; pc < end; pc++ {
				blockEnd[pc] = end
			}
		}
	}

	ncode, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(ncode) != len(c.code) {
		return nil, imgErr("image has %d instructions, program has %d", ncode, len(c.code))
	}

	const knownFlags = fMemEv | fSyncEv | fExecEv | fBlkEv0 | fBlkEv1 | fNullEv
	var (
		gotICs   int
		gotFused int
		chain    []microp // micro stream of the chain in progress
		chainPos int      // next suffix index expected within chain
		chainN   int32    // nrun of the chain's base head
	)
	for pc := range c.code {
		ci := &c.code[pc]
		op, err := r.u8()
		if err != nil {
			return nil, err
		}
		flags, err := r.u8()
		if err != nil {
			return nil, err
		}
		if flags&^knownFlags != 0 {
			return nil, imgErr("pc %d: unknown flag bits %#x", pc, flags)
		}
		inChain := chain != nil && chainPos < len(chain)
		if copcode(op) != cRun {
			if inChain {
				return nil, imgErr("pc %d: fused chain interrupted", pc)
			}
			if copcode(op) != ci.op {
				return nil, imgErr("pc %d: opcode %d does not match program (%d)", pc, op, ci.op)
			}
			ci.flags = flags
		} else {
			nrun8, err := r.u8()
			if err != nil {
				return nil, err
			}
			kind, err := r.u8()
			if err != nil {
				return nil, err
			}
			nrun := int32(nrun8)
			switch kind {
			case 0: // suffix head
				if !inChain {
					return nil, imgErr("pc %d: suffix head outside a fused chain", pc)
				}
				if nrun != chainN-int32(chainPos) {
					return nil, imgErr("pc %d: suffix run length %d, want %d", pc, nrun, chainN-int32(chainPos))
				}
				if want := headFlags(chain[chainPos].op); flags != want {
					return nil, imgErr("pc %d: fused head carries flags %#x, its micro op wants %#x", pc, flags, want)
				}
				ci.op = cRun
				ci.flags = flags
				ci.nrun = nrun
				ci.run = chain[chainPos:]
				chainPos++
			case 1: // base head
				if inChain {
					return nil, imgErr("pc %d: nested fused chain", pc)
				}
				if nrun < 2 || nrun > cRunMax {
					return nil, imgErr("pc %d: run of %d components", pc, nrun)
				}
				m8, err := r.u8()
				if err != nil {
					return nil, err
				}
				m := int32(m8)
				if m != nrun && m != nrun-1 || m < 1 {
					return nil, imgErr("pc %d: run of %d carries %d micro-ops", pc, nrun, m)
				}
				if int32(pc)+nrun > blockEnd[pc] {
					return nil, imgErr("pc %d: fused run crosses a block boundary", pc)
				}
				cf := c.funcs[ci.in.Block.Fn.ID]
				chain = make([]microp, m)
				for i := int32(0); i < m; i++ {
					comp := &c.code[pc+int(i)]
					uop, err := r.u8()
					if err != nil {
						return nil, err
					}
					udst, err := r.u8()
					if err != nil {
						return nil, err
					}
					ua, err := r.u8()
					if err != nil {
						return nil, err
					}
					ub, err := r.u8()
					if err != nil {
						return nil, err
					}
					wantOp, ok := microOpFor(comp)
					evOp, hasEv := memEvOp(wantOp)
					if base := uop &^ mExec; !ok || base != wantOp && !(hasEv && base == evOp) {
						return nil, imgErr("pc %d: micro op %d does not match component %d", pc, uop, i)
					}
					wantDst := comp.dst
					if comp.op == cStore {
						wantDst = 0
					}
					if wantDst < 0 || int32(udst) != wantDst {
						return nil, imgErr("pc %d: micro dst %d does not match component %d", pc, udst, i)
					}
					if !validOperandIndex(cf, comp.a, ua) || !validOperandIndex(cf, comp.b, ub) {
						return nil, imgErr("pc %d: micro operand index out of range in component %d", pc, i)
					}
					chain[i] = microp{op: uop, dst: udst, a: ua, b: ub, in: comp.in}
				}
				if want := headFlags(chain[0].op); flags != want {
					return nil, imgErr("pc %d: fused head carries flags %#x, its micro op wants %#x", pc, flags, want)
				}
				ci.op = cRun
				ci.flags = flags
				ci.nrun = nrun
				ci.run = chain
				chainN = nrun
				chainPos = 1
				gotFused++
			default:
				return nil, imgErr("pc %d: bad fused-head kind %d", pc, kind)
			}
		}
		if chain != nil && chainPos >= len(chain) {
			chain = nil // chain fully consumed; a raw terminator may follow
		}

		// IC record: expected exactly at indirect call/spawn sites.
		if (ci.op == cCall || ci.op == cSpawn) && ci.fn == nil {
			nic, err := r.u8()
			if err != nil {
				return nil, err
			}
			if nic > icMaxEntries {
				return nil, imgErr("pc %d: inline cache of %d entries", pc, nic)
			}
			if nic > 0 {
				ic := make([]icEntry, 0, nic)
				prev := -1
				for i := 0; i < int(nic); i++ {
					fid32, err := r.u32()
					if err != nil {
						return nil, err
					}
					fid := int(fid32)
					if fid <= prev {
						return nil, imgErr("pc %d: inline-cache entries not strictly increasing", pc)
					}
					prev = fid
					if fid >= len(c.funcs) {
						return nil, imgErr("pc %d: inline-cache target %d out of range", pc, fid)
					}
					tf := c.funcs[fid]
					if len(tf.params) != len(ci.in.Args) {
						return nil, imgErr("pc %d: inline-cache target %d has arity %d, site passes %d", pc, fid, len(tf.params), len(ci.in.Args))
					}
					ic = append(ic, icEntry{val: MakeFunc(fid), fn: tf})
				}
				ci.ic = ic
				ci.icIdx = int32(gotICs)
				gotICs++
			}
		}
	}
	if chain != nil && chainPos < len(chain) {
		return nil, imgErr("image ends inside a fused chain")
	}
	// A raw terminator must be legal with the flags its own record
	// carries, so terminators are checked, and pre-decoded into their
	// heads, only once every record has been read.
	for pc := range c.code {
		h := &c.code[pc]
		if h.op != cRun || int32(len(h.run)) == h.nrun {
			continue
		}
		term := &c.code[pc+int(h.nrun)-1]
		if !runTerminator(term) {
			return nil, imgErr("pc %d: op %d with flags %#x cannot terminate a fused run", pc, term.op, term.flags)
		}
		predecodeTerm(h, term)
	}
	if gotICs != int(numICs) {
		return nil, imgErr("image declares %d inline caches, stream has %d", numICs, gotICs)
	}
	if gotFused != int(fused) {
		return nil, imgErr("image declares %d fused runs, stream has %d", fused, gotFused)
	}
	if r.remaining() != 0 {
		return nil, imgErr("%d trailing bytes", r.remaining())
	}
	c.numICs = gotICs
	c.fused = gotFused
	return c, nil
}
