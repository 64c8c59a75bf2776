package core

import (
	"oha/internal/artifacts"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/profile"
)

// compileOpts derives the speculative compile options for one image:
// inline-cache seeds from the database's likely callee sets plus the
// debug toggles carried by the static config. A nil db (sound images,
// which assume no invariants) yields no seeds.
func compileOpts(db *invariants.DB, cfg StaticConfig) interp.CompileOptions {
	opts := interp.CompileOptions{DisableIC: cfg.NoIC, DisableFusion: cfg.NoFusion, DisableFastPath: cfg.NoFastPath}
	if db == nil || cfg.NoIC {
		return opts
	}
	var seeds map[int][]int
	for site, set := range db.Callees {
		if set == nil || set.IsEmpty() {
			continue
		}
		if seeds == nil {
			seeds = make(map[int][]int, len(db.Callees))
		}
		seeds[site] = set.Slice()
	}
	opts.Callees = seeds
	return opts
}

// plan is one immutable analysis configuration: a program, the
// instrumentation masks its runs install, and the image compiled from
// exactly those masks. A nil image makes each run compile on entry
// (the one-shot baselines). Because a plan never changes, its masks
// and image cannot drift apart: a configuration with other masks is a
// new plan.
type plan struct {
	prog  *ir.Program
	masks interp.Masks
	code  *interp.Code
}

// compiledCode returns the plan of prog under masks with its
// (memoized) compiled image. The image is keyed by (program digest,
// config digest) where the config digest covers the masks AND the IC
// seeds and fusion toggle — refining a callee-set fact changes the
// seeds and therefore the key, so a stale image can never be served
// for a refined database. With a nil cache it simply compiles.
func compiledCode(prog *ir.Program, m interp.Masks, opts interp.CompileOptions, cache *artifacts.Cache) *plan {
	key := artifacts.Key(artifacts.KindCompiled, prog, "cfg:"+m.Digest()+"+"+opts.Digest())
	v, err := cache.Memo(key, artifacts.CompiledCodec(prog), func() (any, error) {
		return interp.CompileWith(prog, m, opts), nil
	})
	code, _ := v.(*interp.Code)
	if err != nil {
		// Compile cannot fail; Memo only surfaces compute errors, so
		// this is unreachable — but degrade to a direct compile anyway.
		code = interp.CompileWith(prog, m, opts)
	}
	return &plan{prog: prog, masks: m, code: code}
}

// run executes e under the plan with tracer (nil: none), bounded by
// opts; abort, when non-nil, is the flag the run polls.
func (p *plan) run(e Execution, tracer interp.Tracer, abort *interp.Abort, opts RunOptions) (*interp.Result, error) {
	return interp.Run(interp.Config{
		Prog:     p.prog,
		Inputs:   e.Inputs,
		Choose:   e.chooser(),
		Tracer:   tracer,
		Masks:    p.masks,
		Code:     p.code,
		Abort:    abort,
		Quantum:  opts.Quantum,
		MaxSteps: opts.MaxSteps,
		Ctx:      opts.Ctx,
		Engine:   opts.Engine,
	})
}

// noEvents is the empty non-nil mask: no site of its kind fires an
// event (a nil mask would mean "every site"). An unflagged memory op
// fuses even with a tracer installed.
var noEvents = []bool{}

// plainMasks flag no site for any event: the uninstrumented run. They
// are empty, not nil: a nil mask flags every site, and a flagged memory
// op cannot fuse even with no tracer installed.
var plainMasks = interp.Masks{Mem: noEvents, Sync: noEvents, Block: noEvents}

// BaseImage returns the program's profiling bytecode image (compiled
// from profile.Masks: exactly the events the profiler reads), memoized
// through cache — including its disk tier, so a restarted daemon's
// first profiling job starts with zero compile work. With a nil cache
// it simply compiles.
func BaseImage(prog *ir.Program, cache *artifacts.Cache) *interp.Code {
	return compiledCode(prog, profile.Masks(prog), interp.CompileOptions{}, cache).code
}

// PlainImage returns RunPlain's image, memoized through cache like
// BaseImage: running it with no tracer is RunPlain without the compile
// on entry.
func PlainImage(prog *ir.Program, cache *artifacts.Cache) *interp.Code {
	return compiledCode(prog, plainMasks, interp.CompileOptions{}, cache).code
}
