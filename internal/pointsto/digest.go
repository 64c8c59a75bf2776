package pointsto

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"oha/internal/bitset"
	"oha/internal/ctxs"
)

// CanonicalDigest returns a digest of the analysis results that is
// independent of internal node, object, and context numbering — the
// numbering depends on constraint-processing order, which differs
// between the sequential, parallel, and resumed solvers even when the
// results are semantically identical. Variables are keyed by (function
// ID, context path, variable ID), objects by (kind, key, allocating
// context path), call edges and analyzed instructions by instruction
// ID. Two results with equal digests assign the same points-to sets to
// every variable and object and resolved the same call edges over the
// same instructions.
func (r *Result) CanonicalDigest() string {
	a := r.a
	h := sha256.New()

	// Per-variable (and per-return-node) points-to sets.
	for _, fn := range a.prog.Funcs {
		all := a.tree.CtxsOf(fn)
		keys := make([]string, 0, len(all))
		byKey := make(map[string]ctxs.ID, len(all))
		for _, c := range all {
			if !a.seededCtx[c] {
				continue
			}
			k := pathKey(a.tree.Path(c))
			byKey[k] = c
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			base, ok := a.ctxBase[byKey[k]]
			if !ok {
				continue
			}
			for vi := 0; vi <= len(fn.Vars); vi++ { // +1: the return node
				s := a.pts[base+vi]
				if s.IsEmpty() {
					continue
				}
				fmt.Fprintf(h, "v %d %s %d %s\n", fn.ID, k, vi, a.renderPts(s))
			}
		}
	}

	// Object contents, keyed by canonical object descriptor.
	type objEnt struct{ key, pts string }
	ents := make([]objEnt, 0, len(a.contentOf))
	for oid, n := range a.contentOf {
		s := a.pts[n]
		if s.IsEmpty() {
			continue
		}
		ents = append(ents, objEnt{key: a.objKey(oid), pts: a.renderPts(s)})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	for _, e := range ents {
		fmt.Fprintf(h, "c %s %s\n", e.key, e.pts)
	}

	// Resolved call edges.
	sites := make([]int, 0, len(a.fnCallees))
	for s := range a.fnCallees {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	for _, s := range sites {
		callees := make([]int, 0, len(a.fnCallees[s]))
		for f := range a.fnCallees[s] {
			callees = append(callees, f)
		}
		sort.Ints(callees)
		fmt.Fprintf(h, "e %d %v\n", s, callees)
	}

	// Analyzed instructions (already sorted canonically by finish).
	for _, in := range a.seeded {
		fmt.Fprintf(h, "i %d\n", in.ID)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// objKey renders an object's canonical descriptor.
func (a *analysis) objKey(oid int) string {
	o := a.objs[oid]
	ctx := "-"
	if o.Kind == ObjHeap && o.Ctx >= 0 {
		ctx = pathKey(a.tree.Path(o.Ctx))
	}
	return fmt.Sprintf("%d:%d:%s", o.Kind, o.Key, ctx)
}

// renderPts renders a points-to set as sorted canonical object keys.
func (a *analysis) renderPts(s *bitset.Set) string {
	keys := make([]string, 0, s.Len())
	s.ForEach(func(o int) bool {
		keys = append(keys, a.objKey(o))
		return true
	})
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// pathKey renders a context path canonically.
func pathKey(path []int) string {
	if len(path) == 0 {
		return "root"
	}
	parts := make([]string, len(path))
	for i, p := range path {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ">")
}
