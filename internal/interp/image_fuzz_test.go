package interp_test

import (
	"testing"

	"oha/internal/interp"
	"oha/internal/lang"
	"oha/internal/progen"
)

// fuzzProgSrc is the fixed program fuzzed images are bound against. It
// exercises every structural feature of the format: fused runs (the
// arithmetic loop), pairs (an add and the copy, load or store through
// its result), input inside a run, run-terminating branches and lone
// ones, an indirect call site eligible for an inline cache, spawns, and
// locks. The committed corpus (testdata/fuzz/FuzzDecodeImage) holds
// images of earlier versions and of the current one: copy and address
// pairs without events ("pair-copy") and with Mem events
// ("pair-loadev"), Exec-carrying components with input among them
// ("input-run"), and branches and jumps outside any run delivering
// BlockEnter ("lone-branch").
const fuzzProgSrc = `
	global total = 0;
	global m = 0;
	global buf[4];

	func add(n) {
		var i = 0;
		while (i < n) {
			lock(&m);
			total = total + i * 3 - 1;
			buf[i % 4] = i;
			total = total + buf[(i + 1) % 4];
			unlock(&m);
			i = i + 1;
		}
	}

	func twice(n) { add(n); add(n); }

	func main() {
		var which = input(0);
		var g = add;
		if (which > 0) { g = twice; }
		var t = spawn add(2);
		g(3);
		join(t);
		if (which) { print(buf[1]); }
		print(total);
	}
`

// FuzzDecodeImage feeds arbitrary bytes to the .ohc decoder. The
// contract under test: malformed, truncated, or version-skewed input
// returns an error — never a panic — and any input that does decode
// yields an image that executes within bounds (no out-of-bounds
// register aliasing; the Go runtime would panic on one).
func FuzzDecodeImage(f *testing.F) {
	prog, err := lang.Compile(fuzzProgSrc)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		interp.Compile(prog, interp.Masks{}).EncodeImage(),
		interp.CompileWith(prog, interp.Masks{ExecAll: true}, interp.CompileOptions{DisableFusion: true}).EncodeImage(),
		interp.CompileWith(prog, interp.Masks{
			Mem:   altMask(len(prog.Instrs), 0),
			Block: altMask(len(prog.Blocks), 1),
		}, interp.CompileOptions{Callees: calleesLikely(prog)}).EncodeImage(),
		// A slicer's shape: runs with Exec-carrying components, ending
		// in branches that deliver BlockEnter.
		interp.Compile(prog, interp.Masks{Mem: []bool{}, Sync: []bool{}, Exec: altMask(len(prog.Instrs), 1)}).EncodeImage(),
	}
	// A second program's image: must be rejected by the digest guard.
	if p2, err := lang.Compile(progen.Generate(3, progen.DefaultConfig())); err == nil {
		seeds = append(seeds, interp.Compile(p2, interp.Masks{}).EncodeImage())
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2]) // truncated
		f.Add(s[:len(s)-1]) // off by one
		bad := append([]byte(nil), s...)
		bad[7] ^= 0x01 // version skew
		f.Add(bad)
		bad = append([]byte(nil), s...)
		bad[len(bad)/2] ^= 0x80 // mid-stream corruption
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte("OHCIMG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		code, err := interp.DecodeImage(prog, data)
		if err != nil {
			return
		}
		// Decoded successfully: the image must be safe to execute. Any
		// register aliasing out of bounds panics and fails the fuzzer.
		_, _ = interp.Run(interp.Config{
			Prog:     prog,
			Engine:   interp.EngineCompiled,
			Code:     code,
			Inputs:   []int64{1},
			MaxSteps: 50_000,
		})
	})
}
