package interp_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"oha/internal/fasttrack"
	"oha/internal/interp"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/sched"
)

// imageConfigs is the compile-configuration matrix the round-trip
// determinism gate sweeps: every combination of fusion/IC toggles,
// with and without instrumentation masks and callee seeds. "optft" has
// OptFT's shape — a partial Mem mask, sync sites, no block or Exec
// events — so its instrumented loads and stores fuse into event
// micro-ops.
func imageConfigs(progInstrs, progBlocks int, callees map[int][]int) []struct {
	name string
	m    interp.Masks
	o    interp.CompileOptions
} {
	optft := interp.Masks{
		Mem:   altMask(progInstrs, 0),
		Sync:  altMask(progInstrs, 1),
		Block: make([]bool, progBlocks),
	}
	full := interp.Masks{
		Mem:   altMask(progInstrs, 0),
		Sync:  altMask(progInstrs, 1),
		Block: altMask(progBlocks, 0),
		Exec:  altMask(progInstrs, 1),
	}
	return []struct {
		name string
		m    interp.Masks
		o    interp.CompileOptions
	}{
		{"base", interp.Masks{}, interp.CompileOptions{}},
		{"base-nofusion", interp.Masks{}, interp.CompileOptions{DisableFusion: true}},
		{"masked", full, interp.CompileOptions{}},
		{"masked-execall", interp.Masks{ExecAll: true}, interp.CompileOptions{}},
		{"ic", interp.Masks{}, interp.CompileOptions{Callees: callees}},
		{"ic-nofusion", interp.Masks{}, interp.CompileOptions{Callees: callees, DisableFusion: true}},
		{"ic-noic", interp.Masks{}, interp.CompileOptions{Callees: callees, DisableIC: true}},
		{"masked-ic", full, interp.CompileOptions{Callees: callees}},
		{"optft", optft, interp.CompileOptions{Callees: callees}},
		{"optft-nofusion", optft, interp.CompileOptions{Callees: callees, DisableFusion: true}},
	}
}

// hasMemEvMicro reports whether code's listing shows a fused load or
// store that delivers its Mem event.
func hasMemEvMicro(t *testing.T, code *interp.Code) bool {
	t.Helper()
	var sb strings.Builder
	if err := code.Disasm(&sb); err != nil {
		t.Fatal(err)
	}
	return strings.Contains(sb.String(), "load.ev r") || strings.Contains(sb.String(), "store.ev r")
}

// TestImageRoundTrip is the determinism gate: compile → encode →
// decode → re-encode must be byte-identical, and the decoded image
// must carry identical digests and speculation stats, across the
// -ic/-fusion configuration matrix.
func TestImageRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, tc := range imageConfigs(len(prog.Instrs), len(prog.Blocks), calleesLikely(prog)) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, tc.name), func(t *testing.T) {
				code := interp.CompileWith(prog, tc.m, tc.o)
				img := code.EncodeImage()
				dec, err := interp.DecodeImage(prog, img)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				img2 := dec.EncodeImage()
				if !bytes.Equal(img, img2) {
					t.Fatalf("re-encode not byte-identical: %d vs %d bytes", len(img), len(img2))
				}
				if dec.ConfigDigest() != code.ConfigDigest() || dec.MaskDigest() != code.MaskDigest() {
					t.Fatal("digests diverged across round trip")
				}
				if dec.ICSites() != code.ICSites() || dec.FusedInstrs() != code.FusedInstrs() {
					t.Fatalf("speculation stats diverged: ic %d/%d fused %d/%d",
						dec.ICSites(), code.ICSites(), dec.FusedInstrs(), code.FusedInstrs())
				}
				if dec.Len() != code.Len() {
					t.Fatalf("length diverged: %d vs %d", dec.Len(), code.Len())
				}
				if tc.name == "optft" && !hasMemEvMicro(t, dec) {
					t.Fatal("OptFT-shaped image fused no instrumented load or store")
				}
			})
		}
	}
}

// TestImageExecutesIdentically runs a decoded image and the in-memory
// image it came from under the identical traced configuration and
// requires bit-identical outputs, stats, and event streams. The masks
// have OptFT's shape (no Exec events), so instrumented loads and stores
// run as fused event micro-ops; a FastTrack detector then drives the
// same images through the inline fast path and the slow-path calls, and
// its races, checks, and fast-path counts must match too.
func TestImageExecutesIdentically(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		run := func(code *interp.Code) (*interp.Result, []string, error) {
			r := &recorder{}
			cfg := interp.Config{
				Prog:     prog,
				Tracer:   r,
				Masks:    interp.Masks{Mem: altMask(len(prog.Instrs), 0), Block: altMask(len(prog.Blocks), 1)},
				Choose:   sched.NewSeeded(seed),
				Quantum:  3,
				MaxSteps: diffMaxSteps,
				Engine:   interp.EngineCompiled,
				Code:     code,
			}
			res, err := interp.Run(cfg)
			return res, r.ev, err
		}
		m := interp.Masks{Mem: altMask(len(prog.Instrs), 0), Block: altMask(len(prog.Blocks), 1)}
		code := interp.CompileWith(prog, m, interp.CompileOptions{Callees: calleesLikely(prog)})
		dec, err := interp.DecodeImage(prog, code.EncodeImage())
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !hasMemEvMicro(t, dec) {
			t.Fatalf("seed %d: image fused no instrumented load or store", seed)
		}
		runFT := func(code *interp.Code) string {
			det := fasttrack.New()
			defer det.Release()
			res, err := interp.Run(interp.Config{
				Prog:     prog,
				Tracer:   det,
				Masks:    interp.Masks{Mem: m.Mem, Block: m.Block},
				Choose:   sched.NewSeeded(seed),
				Quantum:  3,
				MaxSteps: diffMaxSteps,
				Engine:   interp.EngineCompiled,
				Code:     code,
			})
			return fmt.Sprint(err, res.Stats, res.IC, det.RaceKeys(), det.RacyAddrs(), det.Checks)
		}
		if a, b := runFT(code), runFT(dec); a != b {
			t.Fatalf("seed %d: FastTrack runs diverged:\n mem: %s\n dec: %s", seed, a, b)
		}
		res1, ev1, err1 := run(code)
		res2, ev2, err2 := run(dec)
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("seed %d: errors diverged: %v vs %v", seed, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if fmt.Sprint(res1.Output) != fmt.Sprint(res2.Output) || res1.Stats != res2.Stats {
			t.Fatalf("seed %d: results diverged", seed)
		}
		if fmt.Sprint(ev1) != fmt.Sprint(ev2) {
			t.Fatalf("seed %d: event streams diverged", seed)
		}
	}
}

// TestDecodeImageRejects spot-checks the decoder's validation: wrong
// magic, wrong version, wrong program, truncation at every prefix, and
// single-byte corruption must all return an error wrapping ErrImage
// (or decode to a semantically validated image), never panic.
func TestDecodeImageRejects(t *testing.T) {
	prog, err := lang.Compile(`func f(a) { print(a); }
func main() { var i = 0; var s = 0; while (i < 4) { s = s + i * 2; i = i + 1; } f(s); }`)
	if err != nil {
		t.Fatal(err)
	}
	other, err := lang.Compile(`func main() { print(3); }`)
	if err != nil {
		t.Fatal(err)
	}
	img := interp.Compile(prog, interp.Masks{}).EncodeImage()

	if _, err := interp.DecodeImage(other, img); !errors.Is(err, interp.ErrImage) {
		t.Fatalf("wrong program: err = %v", err)
	}
	bad := append([]byte(nil), img...)
	bad[0] ^= 0xff
	if _, err := interp.DecodeImage(prog, bad); !errors.Is(err, interp.ErrImage) {
		t.Fatalf("bad magic: err = %v", err)
	}
	bad = append([]byte(nil), img...)
	bad[6] ^= 0xff // version low byte
	if _, err := interp.DecodeImage(prog, bad); !errors.Is(err, interp.ErrImage) {
		t.Fatalf("version skew: err = %v", err)
	}
	for n := 0; n < len(img); n += 7 {
		if _, err := interp.DecodeImage(prog, img[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Single-byte corruption: either rejected, or (for bytes with slack,
	// e.g. flag bits and digest bytes) decoded into an image that still
	// executes without panicking.
	for i := range img {
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x55
		dec, err := interp.DecodeImage(prog, bad)
		if err != nil {
			continue
		}
		if _, err := interp.Run(interp.Config{
			Prog: prog, Engine: interp.EngineCompiled, Code: dec, MaxSteps: 10_000,
		}); err != nil && !errors.Is(err, interp.ErrImage) {
			// Runtime traps are fine; panics are not (the test harness
			// would catch them as failures).
			continue
		}
	}
}
