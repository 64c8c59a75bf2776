package artifacts

import (
	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/mhp"
	"oha/internal/pointsto"
	"oha/internal/staticrace"
)

// Codecs for the static pipeline's artifacts. Each is bound to the
// live program (and, for points-to, the projection of the invariant
// database) the artifact will be rebound to: the cache key already
// covers their digests, so decoding against the binder recovers the
// identical artifact. Marshal failures (e.g. a context-sensitive
// points-to result, which is not portable) are tolerated by the cache —
// storeDisk drops the artifact from the disk tier and keeps it in
// memory.

// compiledCodec persists *interp.Code as a raw .ohc image.
type compiledCodec struct{ prog *ir.Program }

func (c compiledCodec) Ext() string { return ".ohc" }

func (c compiledCodec) Marshal(v any) ([]byte, error) {
	return v.(*interp.Code).EncodeImage(), nil
}

func (c compiledCodec) Unmarshal(data []byte) (any, error) {
	return interp.DecodeImage(c.prog, data)
}

// CompiledCodec returns the on-disk codec for compiled bytecode images
// of one program. Files are stored as bare .ohc images (no gob
// envelope): the image's own digest guard plays the envelope's
// key-check role, and the file is directly inspectable with `oha dump`.
func CompiledCodec(prog *ir.Program) Codec { return compiledCodec{prog: prog} }

// ptCodec persists saturated context-insensitive *pointsto.Result
// values; context-sensitive results refuse to marshal and stay
// memory-only.
type ptCodec struct {
	prog  *ir.Program
	facts *pointsto.Facts
}

func (c ptCodec) Marshal(v any) ([]byte, error) {
	return v.(*pointsto.Result).Encode()
}

func (c ptCodec) Unmarshal(data []byte) (any, error) {
	return pointsto.DecodeResult(c.prog, c.facts, data)
}

// PointsToCodec returns the on-disk codec for points-to results of one
// program under the points-to projection f. The decoded result is
// bound to f — the same projection the cache key was computed from.
func PointsToCodec(prog *ir.Program, f *pointsto.Facts) Codec {
	return ptCodec{prog: prog, facts: f}
}

// mhpCodec persists *mhp.Result values.
type mhpCodec struct{ prog *ir.Program }

func (c mhpCodec) Marshal(v any) ([]byte, error) {
	return v.(*mhp.Result).Encode()
}

func (c mhpCodec) Unmarshal(data []byte) (any, error) {
	return mhp.DecodeResult(c.prog, data)
}

// MHPCodec returns the on-disk codec for MHP results of one program.
func MHPCodec(prog *ir.Program) Codec { return mhpCodec{prog: prog} }

// raceCodec persists *staticrace.Result values.
type raceCodec struct{ prog *ir.Program }

func (c raceCodec) Marshal(v any) ([]byte, error) {
	return v.(*staticrace.Result).Encode()
}

func (c raceCodec) Unmarshal(data []byte) (any, error) {
	return staticrace.DecodeResult(c.prog, data)
}

// RaceCodec returns the on-disk codec for static-race results of one
// program.
func RaceCodec(prog *ir.Program) Codec { return raceCodec{prog: prog} }
