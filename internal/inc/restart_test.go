package inc

import (
	"testing"

	"oha/internal/artifacts"
)

// TestReanalyzeSurvivesRestart simulates a daemon restart: generation
// bundles published through a disk-backed cache must come back through
// a FRESH cache over the same directory with mode "cached" and zero
// solve misses — the zero-compile, zero-solve cold start the disk tier
// exists for. It then checks the restored bundle still supports an
// incremental resume with digest-identical results.
func TestReanalyzeSurvivesRestart(t *testing.T) {
	prog, base := testProgram(t, 1)
	weaks := singleFactWeakenings(prog, base)
	if len(weaks) == 0 {
		t.Fatal("no weakenings")
	}
	w := weaks[0]
	wantPT, wantRace, _ := pipelineDigests(t, prog, w.db)

	dir := t.TempDir()
	c1 := artifacts.New(dir)
	if _, st, err := Reanalyze(prog, nil, base, c1, Options{Incremental: true}); err != nil {
		t.Fatal(err)
	} else if st.Mode != "scratch" {
		t.Fatalf("cold: mode %q, want scratch", st.Mode)
	}

	// "Restart": a fresh cache over the same directory knows nothing
	// in memory but everything on disk.
	c2 := artifacts.New(dir)
	g, st, err := Reanalyze(prog, nil, base, c2, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "cached" {
		t.Fatalf("restart: mode %q, want cached", st.Mode)
	}
	if s := c2.Stats(); s.Misses != 0 {
		t.Fatalf("restart: %d solve misses, want 0 (stats %+v)", s.Misses, s)
	}
	if c2.Stats().DiskHits == 0 {
		t.Fatal("restart: no disk hits recorded")
	}

	// The restored generation is a valid resume base: refine and
	// require digest identity with the from-scratch reference.
	g2, st2, err := Reanalyze(prog, base, w.db, c2, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Mode != "incremental" {
		t.Fatalf("refine after restart: mode %q, want incremental", st2.Mode)
	}
	if got := g2.PT.CanonicalDigest(); got != wantPT {
		t.Fatal("refine after restart: points-to digest diverged")
	}
	if got := g2.Race.CanonicalDigest(); got != wantRace {
		t.Fatal("refine after restart: race digest diverged")
	}
	_ = g
}
