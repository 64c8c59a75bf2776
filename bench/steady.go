package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/ctxs"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/mhp"
	"oha/internal/pointsto"
	"oha/internal/sched"
	"oha/internal/staticrace"
	"oha/internal/staticslice"
	"oha/internal/workloads"
)

// Steady-state workloads: one goroutine visits each program in turn in
// a closed loop, running the uninstrumented image and the analysed
// configuration on the same execution.
const (
	// execsPerProg fixed test executions per program: enough that the
	// share of inputs that roll back varies little between seeds, and
	// that the 90th percentile over executions has ten beyond it.
	execsPerProg = 100
	profileRuns  = 32   // profiling bound, as in the evaluation harness
	sliceBudget  = 4096 // context-sensitive slicing budget, as in the harness
	setupReps    = 5    // cold set-ups before the window
	windowSetups = 10   // cold set-ups spread over the window; setup_s is the median of all
)

// steadyDef names one steady-state workload's client and programs.
type steadyDef struct {
	client string // "race" (OptFT) or "slice" (OptSlice)
	progs  []string
}

// steadyDefs are chosen so that each runtime mechanism does most of the
// work in one workload and none in another. dispatch-mono/-poly are left
// out: under OptFT every test run of theirs rolls back ("race reported
// with elided lock instrumentation"), so they would time only the
// rollback path.
var steadyDefs = map[string]steadyDef{
	// Predicated elision leaves at most 5% of FastTrack's events: an
	// analysed run is almost all interpreter dispatch.
	"race-elided": {"race", []string{"lusearch", "raytracer", "moldyn", "sor", "sparse", "series", "crypt", "lufact"}},
	// At least 45% of events survive: tracer and checks are about a
	// third of run time. Stable-epoch (sunflow, montecarlo, batik) and
	// lock-dense (pmd, xalan) programs sit side by side.
	"race-traced": {"race", []string{"pmd", "sunflow", "montecarlo", "batik", "xalan", "luindex"}},
	// Dynamic slicing with Bloom context checks and rollback (perl
	// rolls back about half of its runs); no FastTrack at all.
	"slice": {"slice", []string{"zlib", "nginx", "go", "sphinx", "vim", "perl", "redis"}},
}

// result is one run reduced to what the benchmark checks: the program
// output and the analysis verdict (a race report or a dynamic slice),
// plus the counts a traced run records.
type result struct {
	output []int64
	race   *core.RaceReport
	slice  *core.SliceReport
	counts Counts
}

// same reports whether two runs of one execution agree: same output
// and the same verdict (racy addresses, or dynamic slice).
func (r result) same(o result) bool {
	if !slices.Equal(r.output, o.output) {
		return false
	}
	switch {
	case r.race != nil:
		return o.race != nil && core.SameRaces(r.race, o.race)
	case r.slice != nil:
		return o.slice != nil && sameSlice(r.slice, o.slice)
	}
	return false
}

func sameSlice(a, b *core.SliceReport) bool {
	if a.Slice == nil || b.Slice == nil {
		return a.Slice == nil && b.Slice == nil
	}
	return a.Slice.Equal(b.Slice)
}

// steadyProg is one program ready for the timed loop.
type steadyProg struct {
	name    string
	prog    *ir.Program
	plain   *interp.Code // uninstrumented image, fused, no event flags
	analyse func(core.Execution) (result, error)
	execs   []core.Execution
	// first is each execution's warm-up result; every later run of the
	// execution must equal it, and verify compares it with the
	// reference. agreed counts the runs that matched it.
	first  []*result
	agreed []int64
}

func (p *steadyProg) setExecs(execs []core.Execution) {
	p.execs = execs
	p.first = make([]*result, len(execs))
	p.agreed = make([]int64, len(execs))
}

func (p *steadyProg) runPlain(e core.Execution) (*interp.Result, error) {
	return interp.Run(interp.Config{Prog: p.prog, Inputs: e.Inputs, Choose: sched.NewSeeded(e.Seed), Code: p.plain})
}

func runCounts(st interp.Stats, ic interp.ICStats) Counts {
	return Counts{
		Steps: st.Steps, Events: st.InstrumentedOps(),
		ICHits: ic.Hits, ICMisses: ic.Misses, Fused: ic.Fused,
		FPHits: ic.FastPath.Hits, FPSlow: ic.FastPath.Slow,
	}
}

func profileExec(w *workloads.Workload, run int) core.Execution {
	return core.Execution{Inputs: w.GenInput(run), Seed: uint64(run + 1)}
}

// mix64 is the splitmix64 finaliser.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// testExecs is a program's fixed execution set for a workload seed.
// Run numbers are hashed apart rather than consecutive: GenInput seeds
// its generator with the run number so that run n+1 draws run n's
// stream shifted by one value, and consecutive runs would be near
// copies of one another. Run numbers stay at 1000 and above, clear of
// the profiling runs.
func testExecs(w *workloads.Workload, seed, n int) []core.Execution {
	out := make([]core.Execution, n)
	for i := range out {
		k := mix64(uint64(seed)<<32 | uint64(i))
		out[i] = core.Execution{Inputs: w.GenInput(1000 + int(k>>34)), Seed: k}
	}
	return out
}

// lastPrint is the slice criterion: the program's final print.
func lastPrint(prog *ir.Program) *ir.Instr {
	var out *ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpPrint {
			out = in
		}
	}
	return out
}

// calleeSeeds turns profiled likely callee sets into inline-cache seeds.
func calleeSeeds(db *invariants.DB) map[int][]int {
	seeds := map[int][]int{}
	for site, set := range db.Callees {
		if set != nil && !set.IsEmpty() {
			seeds[site] = set.Slice()
		}
	}
	return seeds
}

// plainMasks flag no site for any event kind, so the image carries no
// event flags and fuses like an image compiled for no analysis at all.
func plainMasks() interp.Masks {
	return interp.Masks{Mem: []bool{}, Sync: []bool{}, Block: []bool{}}
}

// setupProgram is the cold set-up of one program, as a user of the
// library pays it: compile, profile, static analysis, custom-sync
// validation, and the uninstrumented image. cache is fresh per set-up.
func setupProgram(client string, w *workloads.Workload, cache *artifacts.Cache) (*steadyProg, error) {
	prog, err := lang.Compile(w.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
	}
	pr, err := core.ProfileWith(prog, func(run int) core.Execution { return profileExec(w, run) },
		core.ProfileOptions{MaxRuns: profileRuns, Workers: 1, Cache: cache})
	if err != nil {
		return nil, fmt.Errorf("%s: profile: %w", w.Name, err)
	}
	p := &steadyProg{name: w.Name, prog: prog}
	switch client {
	case "race":
		opt, err := core.NewOptFTCached(prog, pr.DB, cache)
		if err != nil {
			return nil, fmt.Errorf("%s: OptFT: %w", w.Name, err)
		}
		if err := opt.ValidateCustomSync(validationExecs(w, pr.Runs), core.RunOptions{}); err != nil {
			return nil, fmt.Errorf("%s: custom-sync validation: %w", w.Name, err)
		}
		p.analyse = func(e core.Execution) (result, error) {
			rep, err := opt.Run(e, core.RunOptions{})
			if err != nil {
				return result{}, err
			}
			c := runCounts(rep.Stats, rep.IC)
			c.CheckEvents, c.FTChecks, c.RolledBack = rep.CheckEvents, rep.FTChecks, rep.RolledBack
			return result{output: rep.Output, race: rep, counts: c}, nil
		}
	case "slice":
		opt, err := core.NewOptSliceCached(prog, pr.DB, lastPrint(prog), sliceBudget, cache)
		if err != nil {
			return nil, fmt.Errorf("%s: OptSlice: %w", w.Name, err)
		}
		p.analyse = func(e core.Execution) (result, error) {
			rep, err := opt.Run(e, core.RunOptions{})
			if err != nil {
				return result{}, err
			}
			c := runCounts(rep.Stats, rep.IC)
			c.CheckEvents, c.TraceNodes, c.RolledBack = rep.CheckEvents, uint64(rep.TraceNodes), rep.RolledBack
			return result{output: rep.Output, slice: rep, counts: c}, nil
		}
	default:
		return nil, fmt.Errorf("unknown client %q", client)
	}
	p.plain = interp.CompileWith(prog, plainMasks(), interp.CompileOptions{Callees: calleeSeeds(pr.DB)})
	return p, nil
}

// validationExecs are the profiling executions custom-sync validation
// replays, as in the evaluation harness: at most four.
func validationExecs(w *workloads.Workload, runs int) []core.Execution {
	out := make([]core.Execution, min(runs, 4))
	for i := range out {
		out[i] = profileExec(w, i)
	}
	return out
}

// references computes the unoptimised analysis of every execution:
// full FastTrack for the race client, full Giri for the slice client.
func references(client string, p *steadyProg) ([]result, error) {
	refs := make([]result, len(p.execs))
	for i, e := range p.execs {
		switch client {
		case "race":
			rep, err := core.RunFastTrack(p.prog, e, core.RunOptions{})
			if err != nil {
				return nil, fmt.Errorf("%s: FastTrack reference: %w", p.name, err)
			}
			refs[i] = result{output: rep.Output, race: rep}
		case "slice":
			rep, err := core.RunFullGiri(p.prog, lastPrint(p.prog), e, core.RunOptions{}, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: Giri reference: %w", p.name, err)
			}
			refs[i] = result{output: rep.Output, slice: rep}
		}
	}
	return refs, nil
}

// timed is one run time in ns and the window round it was taken in.
type timed struct {
	ns    float64
	round int
}

// sampleCap bounds the run times kept per execution, so that the
// benchmark's own memory does not grow with the number of runs a window
// fits and show in peak_rss_mb.
const sampleCap = 64

// reservoir keeps at most sampleCap of one execution's run times,
// spread evenly over the window: when it is full it drops every other
// sample, and from then on keeps one run in twice as many.
type reservoir struct {
	xs     []timed
	stride int // keep the runs whose number is a multiple of stride
	seen   int // runs offered
}

func (r *reservoir) add(t timed) {
	r.seen++
	if r.seen%r.stride != 0 {
		return
	}
	if len(r.xs) == sampleCap {
		for i := range sampleCap / 2 {
			r.xs[i] = r.xs[2*i+1]
		}
		r.xs = r.xs[:sampleCap/2]
		if r.stride *= 2; r.seen%r.stride != 0 {
			return
		}
	}
	r.xs = append(r.xs, t)
}

// samples are a window's run times per program and execution.
type samples struct {
	analysed, plain [][]reservoir // [program][execution]
}

func newSamples(progs []*steadyProg) *samples {
	s := &samples{analysed: make([][]reservoir, len(progs)), plain: make([][]reservoir, len(progs))}
	for i, p := range progs {
		s.analysed[i] = make([]reservoir, len(p.execs))
		s.plain[i] = make([]reservoir, len(p.execs))
		for j := range p.execs {
			s.analysed[i][j].stride, s.plain[i][j].stride = 1, 1
		}
	}
	return s
}

// calReach is how many rounds on each side of a round its local cal
// spans: about a tenth of a second.
const calReach = 10

// localCal returns, for each round, the median of the cal samples of
// the rounds within calReach of it. The host's speed drifts by up to a
// third for seconds at a time within one window, and the kernel tracks
// that drift round by round; dividing each run by the cal of its own
// moment, rather than by the window's median cal, more than halved the
// spread of slice's tail_norm between runs.
func localCal(cal []float64) []float64 {
	out := make([]float64, len(cal))
	buf := make([]float64, 0, 2*calReach+1)
	for i := range cal {
		buf = append(buf[:0], cal[max(0, i-calReach):min(len(cal), i+calReach+1)]...)
		out[i] = median(buf)
	}
	return out
}

// inCal expresses each run time in cal, against the local cal of the
// round it was taken in.
func inCal(x [][]reservoir, lc []float64) [][][]float64 {
	return convert(x, func(t timed) float64 { return t.ns / lc[t.round] })
}

// rawNs returns the run times in ns.
func rawNs(x [][]reservoir) [][][]float64 {
	return convert(x, func(t timed) float64 { return t.ns })
}

func convert(x [][]reservoir, f func(timed) float64) [][][]float64 {
	out := make([][][]float64, len(x))
	for i, execs := range x {
		out[i] = make([][]float64, len(execs))
		for j, r := range execs {
			out[i][j] = make([]float64, len(r.xs))
			for k, t := range r.xs {
				out[i][j][k] = f(t)
			}
		}
	}
	return out
}

// execMedians returns each execution's median run time; the median
// removes host noise from the repeated runs of one execution.
func execMedians(execs [][]float64) []float64 {
	var out []float64
	for _, xs := range execs {
		if len(xs) > 0 {
			out = append(out, median(xs))
		}
	}
	return out
}

// perProgram reduces run times to one per program: the mean of its
// execution medians. The mean weighs every execution equally, so the
// share of executions that roll back counts in proportion instead of
// flipping a median between two modes.
func perProgram(x [][][]float64) []float64 {
	out := make([]float64, len(x))
	for i, execs := range x {
		sum := 0.0
		ms := execMedians(execs)
		for _, m := range ms {
			sum += m
		}
		out[i] = ratio(sum, float64(len(ms)))
	}
	return out
}

// inputTails returns each program's slow-input tail: the highest
// percentile of its execution medians that leaves at least ten
// executions beyond it, and that percentile.
func inputTails(x [][][]float64) ([]float64, float64) {
	out := make([]float64, len(x))
	level := 100.0
	for i, execs := range x {
		ms := execMedians(execs)
		level = min(level, tailLevel(len(ms)))
		out[i] = percentile(ms, tailLevel(len(ms)))
	}
	return out, level
}

// sampleTails returns each program's p99 over all its run samples, the
// host-noise tail of one program.
func sampleTails(x [][][]float64) []float64 {
	out := make([]float64, len(x))
	for i, execs := range x {
		var all []float64
		for _, xs := range execs {
			all = append(all, xs...)
		}
		out[i] = percentile(all, 99)
	}
	return out
}

// latencyNorm is the geomean over programs of their run time, in cal.
func (s *samples) latencyNorm(lc []float64) float64 {
	return geomean(perProgram(inCal(s.analysed, lc)))
}

// spanName names the spans of one visit: phase, program and execution.
func spanName(phase, prog string, i int) string {
	return phase + "/" + prog + "/" + strconv.Itoa(i)
}

// steadyRun is one steady-state workload run in progress.
type steadyRun struct {
	def       steadyDef
	cfg       runConfig
	progs     []*steadyProg
	attempted int64
	failed    int64
	req       int64
}

func runSteady(cfg runConfig, def steadyDef) (*outcome, error) {
	r := &steadyRun{def: def, cfg: cfg}
	ws := make([]*workloads.Workload, len(def.progs))
	for i, name := range def.progs {
		if ws[i] = workloads.ByName(name); ws[i] == nil {
			return nil, fmt.Errorf("unknown program %q", name)
		}
	}
	vals := map[string]float64{}

	// Cold set-up, repeated; the last repetition's programs are kept.
	// More set-ups are spread over the window, so that setup_s samples
	// the host over the whole run rather than over its first second.
	var setups []float64
	for range setupReps {
		progs, d, err := r.setUp(ws)
		if err != nil {
			return nil, err
		}
		r.progs, setups = progs, append(setups, d)
	}
	for i, p := range r.progs {
		p.setExecs(testExecs(ws[i], cfg.seed, cfg.execs))
	}
	if cfg.trace != nil {
		if err := r.layerPass(ws); err != nil {
			return nil, err
		}
	}

	// Untimed warm-up: one pass over every (program, execution) pair.
	// It records each execution's first result, and its counts are
	// deterministic for a seed.
	for _, p := range r.progs {
		for i := range p.execs {
			r.visit(cfg.trace, "warmup", p, i, true, nil)
		}
	}

	// Timed window. In a traced run every other round is traced, so the
	// same run measures the tracing overhead; at least one round of each
	// kind runs however short the window. Every round ends with one cal
	// sample.
	win := [2]*samples{newSamples(r.progs), newSamples(r.progs)}
	var cal []float64
	start := time.Now()
	deadline := start.Add(cfg.window)
	setupEvery := cfg.window / windowSetups
	nextSetup := start.Add(setupEvery / 2)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		tr, s := cfg.trace, win[1]
		if round%2 == 1 || tr == nil {
			tr, s = nil, win[0]
		}
		for pi, p := range r.progs {
			// Each execution gets two consecutive rounds, one with each
			// run order and, in a traced run, one traced and one not.
			ei := round / 2 % len(p.execs)
			r.visit(tr, "window", p, ei, (round+pi)%2 == 0, func(a, b time.Duration) {
				s.analysed[pi][ei].add(timed{float64(a), round})
				s.plain[pi][ei].add(timed{float64(b), round})
			})
		}
		sp := tr.Begin(0, r.nextReq(), "bench", "cal")
		cal = append(cal, float64(calSample()))
		tr.End(sp, nil)
		if time.Now().After(nextSetup) {
			nextSetup = nextSetup.Add(setupEvery)
			_, d, err := r.setUp(ws)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
			runtime.GC() // the set-up's garbage is not the next run's to collect
		}
	}
	vals["setup_s"] = median(setups)
	// Peak memory is read before the reductions below and the reference
	// analyses of verify allocate.
	var err error
	if vals["peak_rss_mb"], err = peakRSSMiB(); err != nil {
		return nil, err
	}

	s, lc := win[0], localCal(cal)
	norm := inCal(s.analysed, lc)
	tl, level := inputTails(norm)
	runs := 0
	for _, execs := range s.analysed {
		for _, r := range execs {
			runs += r.seen
		}
	}
	vals["latency_norm"] = geomean(perProgram(norm))
	vals["tail_norm"] = geomean(tl)
	// Analysed and uninstrumented runs of a visit are taken together, so
	// their ratio needs no cal.
	vals["overhead_x"] = geomean(perProgram(rawNs(s.analysed))) / geomean(perProgram(rawNs(s.plain)))
	if err := r.verify(); err != nil {
		return nil, err
	}
	o := &outcome{values: vals, attempted: r.attempted, failed: r.failed}
	o.notes = append(o.notes, fmt.Sprintf("%d analysed runs over %d executions per program, %d cal samples of median %.1f us; tail_norm is p%g over executions",
		runs, cfg.execs, len(cal), median(append([]float64(nil), cal...))/1e3, level))
	if cfg.trace != nil {
		r.layerMetrics(vals, win, lc)
	}
	return o, nil
}

func (r *steadyRun) nextReq() int64 { r.req++; return r.req }

// setUp is one timed cold set-up of every program into a fresh artifact
// cache. It starts after a collection, so that it does not pay for
// earlier garbage.
func (r *steadyRun) setUp(ws []*workloads.Workload) ([]*steadyProg, float64, error) {
	runtime.GC()
	cache := artifacts.New("")
	start := time.Now()
	progs := make([]*steadyProg, len(ws))
	for i, w := range ws {
		p, err := setupProgram(r.def.client, w, cache)
		if err != nil {
			return nil, 0, err
		}
		progs[i] = p
	}
	return progs, time.Since(start).Seconds(), nil
}

// visit runs execution i of p uninstrumented and analysed, in the given
// order, checks both, and reports the two run times to record (nil:
// untimed).
func (r *steadyRun) visit(tr *Trace, phase string, p *steadyProg, i int, plainFirst bool, record func(ana, plain time.Duration)) {
	e := p.execs[i]
	req := r.nextReq()
	var name string
	if tr != nil {
		name = spanName(phase, p.name, i)
	}
	root := tr.Begin(0, req, "bench", name)
	var (
		ta, tp     time.Duration
		plain, ana result
		perr, aerr error
	)
	runPlain := func() {
		sp := tr.Begin(root, req, "interp", name)
		start := time.Now()
		res, err := p.runPlain(e)
		tp = time.Since(start)
		if perr = err; err == nil {
			plain = result{output: res.Output, counts: Counts{Steps: res.Stats.Steps, Fused: res.IC.Fused}}
			tr.End(sp, &plain.counts)
			return
		}
		tr.End(sp, nil)
	}
	runAnalysed := func() {
		sp := tr.Begin(root, req, "core", name)
		start := time.Now()
		ana, aerr = p.analyse(e)
		ta = time.Since(start)
		if aerr == nil {
			tr.End(sp, &ana.counts)
			return
		}
		tr.End(sp, nil)
	}
	if plainFirst {
		runPlain()
		runAnalysed()
	} else {
		runAnalysed()
		runPlain()
	}
	tr.End(root, nil)
	r.check(p, i, plain, perr, ana, aerr)
	if record != nil {
		record(ta, tp)
	}
}

// check compares one visit's two runs with the execution's first
// result. The first visit records that result, once the uninstrumented
// and analysed outputs agree; verify later compares it with the
// reference.
func (r *steadyRun) check(p *steadyProg, i int, plain result, perr error, ana result, aerr error) {
	r.attempted += 2
	first := p.first[i]
	if first == nil && perr == nil && aerr == nil && slices.Equal(plain.output, ana.output) {
		p.first[i] = &ana
		p.agreed[i] += 2
		return
	}
	if perr != nil || first == nil || !slices.Equal(plain.output, first.output) {
		r.fail(p.name, "uninstrumented", i, perr)
	} else {
		p.agreed[i]++
	}
	if aerr != nil || first == nil || !first.same(ana) {
		r.fail(p.name, "analysed", i, aerr)
	} else {
		p.agreed[i]++
	}
}

// verify computes the unoptimised reference of every execution and
// compares it with the execution's first result. It runs after the
// window and after peak memory is read: the reference analyses keep
// whole dynamic traces, and would otherwise set the peak.
func (r *steadyRun) verify() error {
	for _, p := range r.progs {
		refs, err := references(r.def.client, p)
		if err != nil {
			return err
		}
		r.compare(p, refs)
	}
	return nil
}

// compare fails every run that agreed with an execution's first result
// when that result differs from the reference.
func (r *steadyRun) compare(p *steadyProg, refs []result) {
	for i, ref := range refs {
		if first := p.first[i]; first != nil && !ref.same(*first) {
			r.failed += p.agreed[i]
			logf("%s: execution %d: result differs from the unoptimised reference", p.name, i)
		}
	}
}

func (r *steadyRun) fail(prog, what string, i int, err error) {
	r.failed++
	if r.failed <= 5 {
		reason := "result differs from the execution's first result"
		if err != nil {
			reason = err.Error()
		}
		logf("%s: %s run of execution %d: %s", prog, what, i, reason)
	}
}

// layerPass times each set-up layer by calling it directly with the
// inputs its constructor uses, one traced pass over the programs.
func (r *steadyRun) layerPass(ws []*workloads.Workload) error {
	tr := r.cfg.trace
	for _, w := range ws {
		req := r.nextReq()
		root := tr.Begin(0, req, "bench", "setup/"+w.Name)
		step := func(layer string, c *Counts, f func() error) error {
			sp := tr.Begin(root, req, layer, "setup")
			err := f()
			tr.End(sp, c)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", w.Name, layer, err)
			}
			return nil
		}
		var prog *ir.Program
		var pr *core.ProfileResult
		var err error
		if err = step("lang", nil, func() (err error) { prog, err = lang.Compile(w.Source); return }); err != nil {
			return err
		}
		pc := &Counts{}
		if err = step("profile", pc, func() (err error) {
			pr, err = core.ProfileWith(prog, func(run int) core.Execution { return profileExec(w, run) },
				core.ProfileOptions{MaxRuns: profileRuns, Workers: 1})
			return
		}); err != nil {
			return err
		}
		pc.Runs = uint64(pr.Runs)
		db := pr.DB
		switch r.def.client {
		case "race":
			var pt *pointsto.Result
			var m *mhp.Result
			if err = step("pointsto", nil, func() (err error) {
				pt, err = pointsto.AnalyzeParallel(prog, ctxs.NewCI(prog), db, 1)
				return
			}); err != nil {
				return err
			}
			_ = step("mhp", nil, func() error { m = mhp.Analyze(prog, pt, db); return nil })
			_ = step("staticrace", nil, func() error { staticrace.AnalyzeParallel(prog, pt, m, db, 1); return nil })
			var opt *core.OptFT
			ec := &Counts{}
			if err = step("core.construct", ec, func() (err error) { opt, err = core.NewOptFT(prog, db); return }); err != nil {
				return err
			}
			if err = step("core.validate", nil, func() error {
				return opt.ValidateCustomSync(validationExecs(w, pr.Runs), core.RunOptions{})
			}); err != nil {
				return err
			}
			for _, in := range prog.Instrs {
				if in.IsMemAccess() {
					ec.Sites++
				}
			}
			ec.Elided = uint64(opt.ElidedAccesses())
		case "slice":
			var pt *pointsto.Result
			if err = step("pointsto", nil, func() (err error) {
				pt, err = pointsto.Analyze(prog, ctxs.NewCS(prog, sliceBudget, db.Contexts), db)
				if errors.Is(err, ctxs.ErrBudget) {
					pt, err = pointsto.Analyze(prog, ctxs.NewCI(prog), db)
				}
				return
			}); err != nil {
				return err
			}
			sc := &Counts{}
			_ = step("staticslice", sc, func() error {
				sc.Size = uint64(staticslice.New(pt).BackwardSlice(lastPrint(prog)).Size())
				return nil
			})
			if err = step("core.construct", nil, func() error {
				_, err := core.NewOptSlice(prog, db, lastPrint(prog), sliceBudget)
				return err
			}); err != nil {
				return err
			}
		}
		_ = step("interp.compile", nil, func() error {
			interp.CompileWith(prog, plainMasks(), interp.CompileOptions{Callees: calleeSeeds(db)})
			return nil
		})
		tr.End(root, nil)
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the trace: set-up
// layers from the layer pass, counts from the warm-up pass (one pass
// over the fixed execution set, so they repeat exactly for a seed), and
// timings from the traced window rounds.
func (r *steadyRun) layerMetrics(vals map[string]float64, win [2]*samples, lc []float64) {
	spans := r.cfg.trace.Spans()
	ix := indexSpans(spans)
	const ms, us = 1e6, 1e3
	sum := func(layer string) float64 { return ix.total(layer, "setup") }
	vals["lang.compile_ms"] = sum("lang") / ms
	vals["profile.ms"] = sum("profile") / ms
	vals["pointsto.ms"] = sum("pointsto") / ms
	vals["mhp.ms"] = sum("mhp") / ms
	vals["staticrace.ms"] = sum("staticrace") / ms
	vals["staticslice.ms"] = sum("staticslice") / ms
	vals["core.validate_ms"] = sum("core.validate") / ms
	vals["interp.compile_us"] = sum("interp.compile") / us
	var runsProf, sites, elided, size float64
	for _, s := range spans {
		if s.Counts == nil || s.Name != "setup" {
			continue
		}
		runsProf += float64(s.Counts.Runs)
		sites += float64(s.Counts.Sites)
		elided += float64(s.Counts.Elided)
		size += float64(s.Counts.Size)
	}
	vals["profile.runs"] = runsProf
	vals["staticrace.elided_frac"] = ratio(elided, sites)
	vals["staticslice.size"] = size

	// Counts over the warm-up pass.
	var c, pc Counts
	var n, rolled float64
	for _, p := range r.progs {
		for i := range p.execs {
			for _, s := range ix.get("core", spanName("warmup", p.name, i)) {
				if s.Counts == nil {
					continue
				}
				n++
				addCounts(&c, s.Counts)
				if s.Counts.RolledBack {
					rolled++
				}
			}
			for _, s := range ix.get("interp", spanName("warmup", p.name, i)) {
				if s.Counts != nil {
					addCounts(&pc, s.Counts)
				}
			}
		}
	}
	vals["interp.steps_per_run"] = ratio(float64(pc.Steps), n)
	vals["interp.fused_frac"] = ratio(float64(pc.Fused), float64(pc.Steps))
	vals["interp.ic_hit_frac"] = ratio(float64(c.ICHits), float64(c.ICHits+c.ICMisses))
	vals["core.events_per_run"] = ratio(float64(c.Events), n)
	vals["core.rollback_frac"] = ratio(rolled, n)
	vals["core.check_events_per_run"] = ratio(float64(c.CheckEvents), n)
	vals["fasttrack.checks_per_run"] = ratio(float64(c.FTChecks), n)
	vals["dynslice.trace_nodes_per_run"] = ratio(float64(c.TraceNodes), n)
	if r.def.client == "race" {
		vals["fasttrack.fastpath_hit_frac"] = ratio(float64(c.FPHits), float64(c.FPHits+c.FPSlow))
	}

	// Timings over the traced window rounds, reduced as the end-to-end
	// metrics are.
	anaNs, plaNs := make([][][]float64, len(r.progs)), make([][][]float64, len(r.progs))
	var rolledT, totalT float64
	for pi, p := range r.progs {
		anaNs[pi], plaNs[pi] = make([][]float64, len(p.execs)), make([][]float64, len(p.execs))
		for i := range p.execs {
			name := spanName("window", p.name, i)
			anaNs[pi][i] = ix.durs("core", name)
			plaNs[pi][i] = ix.durs("interp", name)
			for _, sp := range ix.get("core", name) {
				totalT += sp.Dur()
				if sp.Counts != nil && sp.Counts.RolledBack {
					rolledT += sp.Dur()
				}
			}
		}
	}
	ana, pla := perProgram(anaNs), perProgram(plaNs)
	tl := sampleTails(anaNs)
	cal := median(ix.durs("bench", "cal"))
	for pi, p := range r.progs {
		vals["core.overhead_x."+p.name] = ratio(ana[pi], pla[pi])
		vals["core.run_p99_us."+p.name] = tl[pi] / us
	}
	vals["bench.calib_us"] = cal / us
	vals["core.run_us"] = geomean(ana) / us
	vals["interp.plain_run_norm"] = ratio(geomean(pla), cal)
	vals["core.analysis_frac"] = 1 - ratio(geomean(pla), geomean(ana))
	vals["core.rollback_time_frac"] = ratio(rolledT, totalT)
	vals["bench.trace_overhead_frac"] = ratio(win[1].latencyNorm(lc), win[0].latencyNorm(lc)) - 1
}

func addCounts(dst, c *Counts) {
	dst.Steps += c.Steps
	dst.Events += c.Events
	dst.CheckEvents += c.CheckEvents
	dst.FTChecks += c.FTChecks
	dst.TraceNodes += c.TraceNodes
	dst.ICHits += c.ICHits
	dst.ICMisses += c.ICMisses
	dst.Fused += c.Fused
	dst.FPHits += c.FPHits
	dst.FPSlow += c.FPSlow
}
