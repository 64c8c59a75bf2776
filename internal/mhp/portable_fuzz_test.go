package mhp_test

import (
	"testing"

	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/mhp"
	"oha/internal/pointsto"
	"oha/internal/profile"
	"oha/internal/workloads"
)

// FuzzDecodeMHP feeds arbitrary bytes to the MHP decoder the disk tier
// uses, bound to dispatch-poly. The committed corpus
// (testdata/fuzz/FuzzDecodeMHP) holds its result, the same sound and
// predicated: both spawns sit in main outside any loop. Malformed input returns an error, never a panic,
// and a result that does decode answers every query the static race
// analysis makes and re-encodes.
func FuzzDecodeMHP(f *testing.F) {
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
		s, err := mhp.Analyze(prog, pt, d).Encode()
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
		m, err := mhp.DecodeResult(prog, data)
		if err != nil {
			return
		}
		for _, a := range prog.Instrs {
			for _, b := range prog.Instrs {
				if a.IsMemAccess() && b.IsMemAccess() {
					m.MHP(a, b)
				}
			}
		}
		if _, err := m.Encode(); err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
	})
}
