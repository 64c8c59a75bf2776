package staticrace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"oha/internal/invariants"
	"oha/internal/ir"
)

// Masks derives the FastTrack instrumentation masks this result
// implies: mem marks the loads/stores that must stay instrumented
// (statically racy), sync marks the lock/unlock sites that must stay
// instrumented (all of them, minus db's elidable set when db is
// predicated). Fresh slices on every call — callers mutate them per
// detector instance.
func (r *Result) Masks(db *invariants.DB) (mem, sync []bool) {
	mem = make([]bool, len(r.Prog.Instrs))
	sync = make([]bool, len(r.Prog.Instrs))
	for _, in := range r.Prog.Instrs {
		switch {
		case in.IsMemAccess():
			mem[in.ID] = r.Racy.Has(in.ID)
		case in.Op == ir.OpLock || in.Op == ir.OpUnlock:
			sync[in.ID] = !(db != nil && db.ElidableLocks.Has(in.ID))
		}
	}
	return mem, sync
}

// CanonicalDigest digests the analysis results. Every component is
// keyed by instruction ID, so the digest is inherently independent of
// solver-internal numbering: sequential and parallel analyses of the
// same inputs produce byte-identical digests.
func (r *Result) CanonicalDigest() string {
	h := sha256.New()
	fmt.Fprintf(h, "racy %v\n", r.Racy.Slice())
	for _, p := range r.Pairs {
		fmt.Fprintf(h, "p %d %d\n", p[0].ID, p[1].ID)
	}
	fmt.Fprintf(h, "analyzed %v\n", r.AnalyzedAccesses.Slice())
	fmt.Fprintf(h, "elidable %v\n", r.ElidableSyncs.Slice())
	ids := make([]int, 0, len(r.Locksets))
	for id, s := range r.Locksets {
		if s != nil && !s.IsEmpty() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "l %d %v\n", id, r.Locksets[id].Slice())
	}
	return hex.EncodeToString(h.Sum(nil))
}
