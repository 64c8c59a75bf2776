// Portable serialization of static-race results for the artifact
// cache's disk tier. Pairs are stored as instruction-ID tuples and
// rebound on decode; bitsets travel as word images. Every ID is
// validated so a stale or corrupted artifact fails decode (a cache
// miss) instead of poisoning downstream consumers.
package staticrace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"oha/internal/bitset"
	"oha/internal/ir"
)

type wireIDSet struct {
	K  int
	Ws []uint64
}

type wireRace struct {
	Racy     []uint64
	Pairs    [][2]int
	Analyzed []uint64
	Elidable []uint64
	Locksets []wireIDSet
}

func sortedIDSets(m map[int]*bitset.Set) []wireIDSet {
	out := make([]wireIDSet, 0, len(m))
	for k, s := range m {
		e := wireIDSet{K: k}
		if s != nil {
			e.Ws = s.Words()
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// Encode serializes the result for the disk tier.
func (r *Result) Encode() ([]byte, error) {
	w := wireRace{
		Racy:     r.Racy.Words(),
		Analyzed: r.AnalyzedAccesses.Words(),
		Elidable: r.ElidableSyncs.Words(),
		Locksets: sortedIDSets(r.Locksets),
	}
	for _, p := range r.Pairs {
		w.Pairs = append(w.Pairs, [2]int{p[0].ID, p[1].ID})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeResult restores a serialized result against prog, rebinding
// pair instruction IDs and validating every ID.
func DecodeResult(prog *ir.Program, data []byte) (*Result, error) {
	var w wireRace
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("staticrace: decode: %w", err)
	}
	bad := func(format string, args ...any) (*Result, error) {
		return nil, fmt.Errorf("staticrace: decode: %s", fmt.Sprintf(format, args...))
	}
	checkIDs := func(s *bitset.Set, what string) error {
		var err error
		s.ForEach(func(id int) bool {
			if id >= len(prog.Instrs) {
				err = fmt.Errorf("staticrace: decode: %s instruction %d out of range", what, id)
				return false
			}
			return true
		})
		return err
	}
	r := &Result{
		Prog:             prog,
		Racy:             bitset.FromWords(w.Racy),
		AnalyzedAccesses: bitset.FromWords(w.Analyzed),
		ElidableSyncs:    bitset.FromWords(w.Elidable),
		Locksets:         make(map[int]*bitset.Set, len(w.Locksets)),
	}
	if err := checkIDs(r.Racy, "racy"); err != nil {
		return nil, err
	}
	if err := checkIDs(r.AnalyzedAccesses, "analyzed"); err != nil {
		return nil, err
	}
	if err := checkIDs(r.ElidableSyncs, "elidable"); err != nil {
		return nil, err
	}
	for _, p := range w.Pairs {
		if p[0] < 0 || p[0] >= len(prog.Instrs) || p[1] < 0 || p[1] >= len(prog.Instrs) {
			return bad("pair (%d,%d) out of range", p[0], p[1])
		}
		r.Pairs = append(r.Pairs, [2]*ir.Instr{prog.Instrs[p[0]], prog.Instrs[p[1]]})
	}
	for _, e := range w.Locksets {
		if e.K < 0 || e.K >= len(prog.Instrs) {
			return bad("lockset key %d out of range", e.K)
		}
		s := bitset.FromWords(e.Ws)
		if err := checkIDs(s, "lockset"); err != nil {
			return nil, err
		}
		r.Locksets[e.K] = s
	}
	return r, nil
}
