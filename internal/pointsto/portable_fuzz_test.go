package pointsto_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"oha/internal/ctxs"
	"oha/internal/invariants"
	"oha/internal/ir"
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
		useDecoded(t, prog, pt, db)
	})
}

// useDecoded hands a decoded points-to result to every consumer of a
// cached one.
func useDecoded(t *testing.T, prog *ir.Program, pt *pointsto.Result, db *invariants.DB) {
	pt.CanonicalDigest()
	if _, err := pt.Encode(); err != nil {
		t.Fatalf("decoded result does not re-encode: %v", err)
	}
	m := mhp.Analyze(prog, pt, db)
	staticrace.Analyze(prog, pt, m, db)
	nullcheck.Analyze(prog, pt, db)
}

// FuzzDecodePointsToWire is the structure-aware companion of
// FuzzDecodePointsTo. It decodes one committed corpus file into the
// wire record, adds fuzzer-chosen deltas to up to three of its integer
// fields (EditWire), re-encodes it and decodes that. Every edit keeps
// the gob stream well formed, so the decoder's own range checks are
// what stands between an edited record and a panic in a consumer.
func FuzzDecodePointsToWire(f *testing.F) {
	w := workloads.ByName("dispatch-poly")
	prog := w.Prog()
	db, err := profile.Run(prog, w.GenInput(0), 1)
	if err != nil {
		f.Fatal(err)
	}
	corpus := readFuzzCorpus(f, "testdata/fuzz/FuzzDecodePointsTo")
	for i := range corpus {
		f.Add(uint8(i), uint64(0), int64(0), uint64(0), int64(0), uint64(0), int64(0))
		f.Add(uint8(i), uint64(7), int64(1), uint64(100), int64(-1), uint64(1000), int64(1<<20))
	}
	facts := pointsto.FactsOf(db)
	f.Fuzz(func(t *testing.T, file uint8, f1 uint64, d1 int64, f2 uint64, d2 int64, f3 uint64, d3 int64) {
		data, err := pointsto.EditWire(corpus[int(file)%len(corpus)], [][2]int64{
			{int64(f1), d1}, {int64(f2), d2}, {int64(f3), d3}})
		if err != nil {
			t.Fatalf("committed corpus file does not decode as a wire record: %v", err)
		}
		pt, err := pointsto.DecodeResult(prog, facts, data)
		if err != nil {
			return
		}
		useDecoded(t, prog, pt, db)
	})
}

// readFuzzCorpus reads the []byte values of a committed fuzz corpus
// directory (files in the "go test fuzz v1" format, one []byte each),
// in file-name order.
func readFuzzCorpus(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			tb.Fatalf("%s: not a one-value []byte corpus file", e.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, []byte(s))
	}
	if len(out) == 0 {
		tb.Fatalf("%s: empty corpus", dir)
	}
	return out
}
