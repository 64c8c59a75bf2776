package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oha/internal/artifacts"
	"oha/internal/bitset"
	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/nullcheck"
	"oha/internal/profile"
	"oha/internal/workloads"
)

// The work-count golden file pins the deterministic work of every
// workload program (DESIGN §10's "shape" metrics): per-run event
// counts, checks, fast-path and dispatch counters, rollbacks and trace
// nodes under each configuration of the program's client, plus what
// profiling and the static phases produced. A change to any count
// shows up as a diff of testdata/workcounts.golden; regenerate it with
//
//	go test ./internal/core/ -run TestWorkCountsPinned -update
//
// and say in the change why the counts moved. The engine toggles
// re-run the test with speculative lowerings or fast paths off; the
// columns a toggle legitimately changes are left out of the comparison
// and every other column must still match:
//
//	go test ./internal/core/ -run TestWorkCountsPinned -fastpath=off
//	go test ./internal/core/ -run TestWorkCountsPinned -ic=off -fusion=off
//
// With -engine=tree every configuration runs on the reference
// tree-walker, which has no fast paths, inline caches or fusion, so the
// "fp", "ic" and "fused" columns are left out:
//
//	go test ./internal/core/ -run TestWorkCountsPinned -engine=tree
//
// With -image=roundtrip every compiled image is served by an artifact
// cache from its disk tier, so the runs execute decoded .ohc images,
// and every column must match:
//
//	go test ./internal/core/ -run TestWorkCountsPinned -image=roundtrip
var (
	updateGolden = flag.Bool("update", false, "rewrite testdata/workcounts.golden from this tree")
	icFlag       = flag.String("ic", "on", "work counts: speculative inline caches (on|off)")
	fusionFlag   = flag.String("fusion", "on", "work counts: superinstruction fusion (on|off)")
	fastpathFlag = flag.String("fastpath", "on", "work counts: inline analysis fast paths (on|off)")
	imageFlag    = flag.String("image", "direct", "work counts: in-memory images, or images decoded from an artifact cache's disk tier (direct|roundtrip)")
	engineFlag   = flag.String("engine", "compiled", "work counts: the engine the configurations run on (compiled|tree)")
)

const (
	workCountsGolden = "testdata/workcounts.golden"
	// workCountExecs is the testing set per program: the evaluation
	// harness's default Figure 5/6 testing set.
	workCountExecs = 8
	// workCountProfileRuns and workCountBudget are the benchmark's
	// profiling bound and slicing budget.
	workCountProfileRuns = 32
	workCountBudget      = 4096
)

// workCountsConfig is the static configuration the test flags select.
func workCountsConfig(t *testing.T) StaticConfig {
	off := func(name, v string) bool {
		switch v {
		case "on":
			return false
		case "off":
			return true
		}
		t.Fatalf("-%s=%q: want on or off", name, v)
		return false
	}
	return StaticConfig{
		Workers:    1,
		NoIC:       off("ic", *icFlag),
		NoFusion:   off("fusion", *fusionFlag),
		NoFastPath: off("fastpath", *fastpathFlag),
	}
}

// workCountsEngine is the engine the -engine flag selects.
func workCountsEngine(t *testing.T) interp.EngineKind {
	switch *engineFlag {
	case "compiled":
		return interp.EngineCompiled
	case "tree":
		return interp.EngineTree
	}
	t.Fatalf("-engine=%q: want compiled or tree", *engineFlag)
	return 0
}

// excludedColumns are the columns cfg's toggles and the engine
// legitimately change.
func excludedColumns(cfg StaticConfig, engine interp.EngineKind) map[string]bool {
	ex := map[string]bool{}
	if cfg.NoIC || engine == interp.EngineTree {
		ex["ic"] = true
	}
	if cfg.NoFusion || engine == interp.EngineTree {
		ex["fused"] = true
	}
	if cfg.NoFastPath || engine == interp.EngineTree {
		ex["fp"] = true
	}
	return ex
}

func TestWorkCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles and runs every workload")
	}
	cfg := workCountsConfig(t)
	opts := RunOptions{Engine: workCountsEngine(t)}
	images := 0
	switch *imageFlag {
	case "direct":
	case "roundtrip":
		// The first pass writes every compiled image to the disk tier as
		// an .ohc file; the compared pass must decode each one through
		// a fresh cache. Other artifacts are dropped, so they recompute.
		dir := t.TempDir()
		cfg.Cache = artifacts.New(dir)
		renderWorkCounts(t, cfg, opts)
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil || d.IsDir():
				return err
			case filepath.Ext(path) == ".ohc":
				images++
				return nil
			}
			return os.Remove(path)
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = artifacts.New(dir)
	default:
		t.Fatalf("-image=%q: want direct or roundtrip", *imageFlag)
	}
	got := renderWorkCounts(t, cfg, opts)
	if st := cfg.Cache.Stats(); cfg.Cache != nil && (images == 0 || st.DiskHits != uint64(images)) {
		t.Fatalf("-image=roundtrip: %d of the %d images on disk were decoded", st.DiskHits, images)
	}
	if *updateGolden {
		if len(excludedColumns(cfg, opts.Engine)) > 0 || cfg.Cache != nil {
			t.Fatal("-update needs every engine toggle on, -engine=compiled and -image=direct")
		}
		if err := os.WriteFile(workCountsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workCountsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	ex := excludedColumns(cfg, opts.Engine)
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("work counts have %d lines, golden file %d (regenerate with -update)", len(gl), len(wl))
	}
	bad := 0
	for i := range gl {
		g, w := dropColumns(gl[i], ex), dropColumns(wl[i], ex)
		if g != w {
			t.Errorf("%s:%d:\n got  %s\n want %s", filepath.Base(workCountsGolden), i+1, g, w)
			if bad++; bad == 20 {
				t.Fatal("too many differences")
			}
		}
	}
}

// dropColumns removes the key=value fields whose key is in ex.
func dropColumns(line string, ex map[string]bool) string {
	if len(ex) == 0 {
		return line
	}
	f := strings.Fields(line)
	out := f[:0]
	for _, c := range f {
		if k, _, ok := strings.Cut(c, "="); !ok || !ex[k] {
			out = append(out, c)
		}
	}
	return strings.Join(out, " ")
}

// renderWorkCounts profiles and runs every workload program under cfg,
// each configuration bounded by opts, and renders the counts, one
// program after another in name order.
func renderWorkCounts(t *testing.T, cfg StaticConfig, opts RunOptions) []byte {
	var b bytes.Buffer
	b.WriteString("# Deterministic work per workload program; see workcounts_test.go.\n")
	for _, w := range workloads.All() {
		if err := workCounts(&b, w, cfg, opts); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	return b.Bytes()
}

func workCountProfileExec(w *workloads.Workload, run int) Execution {
	return Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
}

func workCountTestExec(w *workloads.Workload, i int) Execution {
	return Execution{Inputs: w.GenInput(1000 + i), Seed: uint64(2000 + i)}
}

// workCounts renders one program: its profile, its static results, and
// one line per (configuration, testing execution), each run bounded by
// opts.
func workCounts(b *bytes.Buffer, w *workloads.Workload, cfg StaticConfig, opts RunOptions) error {
	prog := w.Prog()
	pr, err := profileAtWorkers(prog, w, cfg)
	if err != nil {
		return err
	}
	var dbText bytes.Buffer
	if _, err := pr.DB.WriteTo(&dbText); err != nil {
		return err
	}
	c := pr.DB.Count()
	fmt.Fprintf(b, "\n== %s\n", w.Name)
	fmt.Fprintf(b, "profile runs=%d db=%x visited=%d mustalias=%d singleton=%d elidable=%d callee-sites=%d callee-targets=%d contexts=%d nonnull=%d\n",
		pr.Runs, sha256.Sum256(dbText.Bytes()), c.VisitedBlocks, c.MustAliasPairs, c.SingletonSpawns,
		c.ElidableLocks, c.CalleeSites, c.CalleeTargets, c.Contexts, c.NonNullLoads)

	emit := func(rows ...func(b *bytes.Buffer, i int, e Execution, opts RunOptions)) {
		for _, row := range rows {
			for i := 0; i < workCountExecs; i++ {
				row(b, i, workCountTestExec(w, i), opts)
			}
		}
	}
	plain := compiledCode(prog, plainMasks, compileOpts(pr.DB, cfg), cfg.Cache)
	emit(configRow("plain", func(e Execution, opts RunOptions) (*Outcome, error) {
		res, err := plain.run(e, nil, nil, opts)
		if err != nil {
			return nil, err
		}
		o := outcomeOf(res)
		return &o, nil
	}, func(*Outcome) string { return "" }))
	switch w.Kind {
	case workloads.Race:
		opt, err := NewOptFTStatic(prog, pr.DB, cfg)
		if err != nil {
			return err
		}
		sound, err := opt.gens.sound.get()
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "static sound-pairs=%d pred-pairs=%d validated-elidable=%d elided-accesses=%d\n",
			len(sound.Static.Pairs), len(opt.Pred.Pairs), opt.DB.ElidableLocks.Len(), opt.ElidedAccesses())
		full := compiledCode(prog, raceMasks(prog, nil, nil), compileOpts(nil, cfg), cfg.Cache)
		cols := func(r *RaceReport) string { return fmt.Sprintf(" ft=%d racy=%d", r.FTChecks, len(r.RacyAddrs)) }
		emit(configRow("fasttrack", full.fastTrack, cols), configRow("hybridft", sound.Run, cols), configRow("optft", opt.Run, cols))
	case workloads.Slice:
		crit := workCountCriterion(prog)
		opt, err := NewOptSliceStatic(prog, pr.DB, crit, workCountBudget, cfg)
		if err != nil {
			return err
		}
		sound, err := opt.gens.sound.get()
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "static sound-slice=%d sound-at=%s pred-slice=%d pred-at=%s\n",
			sound.Static.Size(), sound.AT, opt.Static.Size(), opt.AT)
		full := compiledCode(prog, interp.Masks{ExecAll: true, Block: make([]bool, len(prog.Blocks))}, compileOpts(nil, cfg), cfg.Cache)
		giri := func(e Execution, opts RunOptions) (*SliceReport, error) { return full.slice(crit, e, opts, 0) }
		cols := func(r *SliceReport) string {
			n := 0
			if r.Slice != nil {
				n = r.Slice.Size()
			}
			return fmt.Sprintf(" nodes=%d slice=%d", r.TraceNodes, n)
		}
		emit(configRow("giri", giri, cols), configRow("hybridslice", sound.Run, cols), configRow("optslice", opt.Run, cols))
	case workloads.Null:
		opt, err := NewOptNull(prog, pr.DB, cfg)
		if err != nil {
			return err
		}
		sound, err := opt.gens.sound.get()
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "static deref-sites=%d sound-discharged=%d pred-discharged=%d\n",
			opt.Pred.DerefSites, sound.Static.Discharged.Len(), opt.ElidedChecks())
		none := &nullcheck.Result{Discharged: &bitset.Set{}, UsedFacts: &bitset.Set{}, DerefSites: countDerefSites(prog)}
		always := compiledCode(prog, soundNullMasks(prog, fullNullMask(prog)), compileOpts(nil, cfg), cfg.Cache)
		alwaysRun := func(e Execution, opts RunOptions) (*NullReport, error) { return always.observeNulls(e, opts, none) }
		cols := func(r *NullReport) string { return fmt.Sprintf(" nil=%d nil-sites=%d", r.NilDerefs, len(r.NilSites)) }
		emit(configRow("nullalways", alwaysRun, cols), configRow("hybridnull", sound.Run, cols), configRow("optnull", opt.Run, cols))
	}
	return nil
}

// configRow renders one configuration's run of a testing execution:
// the outcome columns every configuration shares, then cols's own, or
// the run's error.
func configRow[R Report](name string, run func(Execution, RunOptions) (R, error), cols func(R) string) func(b *bytes.Buffer, i int, e Execution, opts RunOptions) {
	return func(b *bytes.Buffer, i int, e Execution, opts RunOptions) {
		rep, err := run(e, opts)
		if err != nil {
			fmt.Fprintf(b, "%-11s %d err=%q\n", name, i, err.Error())
			return
		}
		fmt.Fprintf(b, "%-11s %d %s%s\n", name, i, outcomeColumns(rep.Base()), cols(rep))
	}
}

// profileAtWorkers profiles w as the benchmark does, sequentially and
// on an 8-worker pool, and fails unless the two agree exactly: the
// golden file must not depend on the profiling pool.
func profileAtWorkers(prog *ir.Program, w *workloads.Workload, cfg StaticConfig) (*ProfileResult, error) {
	code := compiledCode(prog, profile.Masks(prog), compileOpts(nil, cfg), cfg.Cache).code
	var prs [2]*ProfileResult
	for i, workers := range []int{1, 8} {
		pr, err := ProfileWith(prog, func(run int) Execution { return workCountProfileExec(w, run) },
			ProfileOptions{MaxRuns: workCountProfileRuns, Workers: workers, Code: code})
		if err != nil {
			return nil, err
		}
		prs[i] = pr
	}
	if prs[0].Runs != prs[1].Runs || !prs[0].DB.Equal(prs[1].DB) || fmt.Sprint(prs[0].BlockRuns) != fmt.Sprint(prs[1].BlockRuns) {
		return nil, fmt.Errorf("profiling at 1 and 8 workers differs: %d vs %d runs", prs[0].Runs, prs[1].Runs)
	}
	return prs[0], nil
}

// workCountCriterion is the slice criterion: the program's final print.
func workCountCriterion(prog *ir.Program) *ir.Instr {
	prints := Prints(prog)
	return prints[len(prints)-1]
}

// outcomeColumns renders the counts every configuration shares: Stats
// by event kind, check events, rollback and violation kind, and the
// engine's fast-path ("fp" hits/slow), inline-cache ("ic"
// hits/misses/deopts) and fusion counters. A rolled-back run also shows
// the facts its attempts refuted and what re-executed it ("to": a
// refined generation or the sound analysis).
func outcomeColumns(o *Outcome) string {
	s := o.Stats
	viol := string(o.Violation.Kind)
	if viol == "" {
		viol = "-"
	}
	rb := 0
	if o.RolledBack {
		rb = 1
		keys := make([]string, len(o.Refuted))
		for i, v := range o.Refuted {
			keys[i] = v.FactKey()
		}
		viol += fmt.Sprintf(" refuted=%s to=%s", strings.Join(keys, ","), o.RolledBackTo)
	}
	return fmt.Sprintf("steps=%d ld=%d st=%d lk=%d ul=%d sp=%d jn=%d blk=%d call=%d exec=%d nullck=%d chk=%d rb=%d viol=%s fp=%d/%d ic=%d/%d/%d fused=%d",
		s.Steps, s.Loads, s.Stores, s.Locks, s.Unlocks, s.Spawns, s.Joins, s.BlockEvents, s.CallEvents, s.ExecEvents, s.NullChecks,
		o.CheckEvents, rb, viol, o.IC.FastPath.Hits, o.IC.FastPath.Slow, o.IC.Hits, o.IC.Misses, o.IC.Deopts, o.IC.Fused)
}
