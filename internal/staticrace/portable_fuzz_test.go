package staticrace_test

import (
	"testing"

	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/mhp"
	"oha/internal/pointsto"
	"oha/internal/profile"
	"oha/internal/staticrace"
	"oha/internal/workloads"
)

// FuzzDecodeStaticRace feeds arbitrary bytes to the static race decoder
// the disk tier uses, bound to dispatch-poly. The committed corpus
// (testdata/fuzz/FuzzDecodeStaticRace) holds its sound and predicated
// results. Malformed input returns an error, never a panic, and a
// result that does decode yields its masks and digest and re-encodes.
func FuzzDecodeStaticRace(f *testing.F) {
	w := workloads.ByName("dispatch-poly")
	prog := w.Prog()
	db, err := profile.Run(prog, w.GenInput(0), 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []*invariants.DB{nil, db} {
		pt, err := pointsto.Analyze(prog, ctxs.NewCI(prog), d)
		if err != nil {
			f.Fatal(err)
		}
		s, err := staticrace.Analyze(prog, pt, mhp.Analyze(prog, pt, d), d).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s)
		f.Add(s[:len(s)/2])
		bad := append([]byte(nil), s...)
		bad[len(bad)/2] ^= 0x80
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := staticrace.DecodeResult(prog, data)
		if err != nil {
			return
		}
		r.Masks(db)
		r.CanonicalDigest()
		if _, err := r.Encode(); err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
	})
}
