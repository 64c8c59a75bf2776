package oha_test

import (
	"strings"
	"testing"

	"oha"
)

const apiSrc = `
	global c = 0;
	global m = 0;
	func w(n) {
		var i = 0;
		while (i < n) {
			lock(&m);
			c = c + 1;
			unlock(&m);
			i = i + 1;
		}
	}
	func main() {
		var t1 = spawn w(input(0));
		var t2 = spawn w(input(0));
		join(t1);
		join(t2);
		print(c);
	}
`

func TestPublicAPIRacePipeline(t *testing.T) {
	prog, err := oha.Compile(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := oha.Profile(prog, func(run int) oha.Execution {
		return oha.Execution{Inputs: []int64{15}, Seed: uint64(run + 1)}
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	det, err := oha.NewRaceDetector(prog, pr.DB)
	if err != nil {
		t.Fatal(err)
	}
	e := oha.Execution{Inputs: []int64{15}, Seed: 7}
	opt, err := det.Run(e, oha.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := oha.RunFastTrack(prog, e, oha.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Races) != len(ft.Races) {
		t.Fatalf("results differ: %v vs %v", opt.Races, ft.Races)
	}
	if opt.Stats.InstrumentedOps() >= ft.Stats.InstrumentedOps() {
		t.Errorf("no work saved: %d vs %d", opt.Stats.InstrumentedOps(), ft.Stats.InstrumentedOps())
	}
}

func TestPublicAPISlicePipeline(t *testing.T) {
	prog := oha.MustCompile(apiSrc)
	criterion := oha.Prints(prog)[0]
	pr, err := oha.Profile(prog, func(run int) oha.Execution {
		return oha.Execution{Inputs: []int64{10}, Seed: uint64(run + 1)}
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := oha.NewSlicer(prog, pr.DB, criterion, 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := oha.Execution{Inputs: []int64{10}, Seed: 3}
	rep, err := sl.Run(e, oha.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := oha.RunFullGiri(prog, criterion, e, oha.RunOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slice == nil || !rep.Slice.Equal(full.Slice) {
		t.Fatal("optimistic slice differs from full Giri")
	}
	hy, err := oha.NewHybridSlicer(prog, criterion, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hy.Run(e, oha.RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIInvariantsRoundTrip(t *testing.T) {
	prog := oha.MustCompile(apiSrc)
	db, err := oha.ProfileExecutions(prog, []oha.Execution{
		{Inputs: []int64{5}, Seed: 1},
		{Inputs: []int64{9}, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := oha.SaveInvariants(&b, db); err != nil {
		t.Fatal(err)
	}
	back, err := oha.LoadInvariants(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(back) {
		t.Fatal("invariant round trip changed the database")
	}
}

func TestPublicAPICompileError(t *testing.T) {
	if _, err := oha.Compile("func main() { oops }"); err == nil {
		t.Fatal("bad program compiled")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	oha.MustCompile("func main() { oops }")
}
