package pointsto_test

import (
	"testing"

	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/mhp"
	"oha/internal/nullcheck"
	"oha/internal/pointsto"
	"oha/internal/profile"
	"oha/internal/staticrace"
	"oha/internal/workloads"
)

// FuzzDecodePointsTo feeds arbitrary bytes to the CI points-to decoder
// the disk tier uses, bound to dispatch-poly (indirect calls, spawns,
// locks) and the projection of its first profiling run. The committed
// corpus (testdata/fuzz/FuzzDecodePointsTo) holds its sound and
// predicated results. Malformed input returns an error, never a panic,
// and a result that does decode is safe to hand to every consumer of a
// cached points-to result: re-encoding, MHP, the static race analysis
// and the null proof.
func FuzzDecodePointsTo(f *testing.F) {
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
		s, err := pt.Encode()
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
	facts := pointsto.FactsOf(db)
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := pointsto.DecodeResult(prog, facts, data)
		if err != nil {
			return
		}
		pt.CanonicalDigest()
		if _, err := pt.Encode(); err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		m := mhp.Analyze(prog, pt, db)
		staticrace.Analyze(prog, pt, m, db)
		nullcheck.Analyze(prog, pt, db)
	})
}
