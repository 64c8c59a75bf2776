package core

import (
	"strconv"

	"oha/internal/invariants"
	"oha/internal/ir"
)

// ClientNames lists the analysis clients in name order: the Name of
// each entry point (Race, Slice, Null), and so the job kinds the daemon,
// the CLI and the load generator accept and the client metric label
// values. See DESIGN §17.
var ClientNames = []string{"nullcheck", "race", "slice"}

// Detector is one client's optimistic analysis: OptFT, OptSlice or
// OptNull.
type Detector[R Report] interface {
	Run(e Execution, opts RunOptions) (R, error)
	CodeDigest() string
}

// Analysis is one client's typed entry point, in the two shapes the
// paper runs every client in (§2.3): the optimistic analysis with
// rollback, built for an invariant database, and the unoptimized sound
// baseline it must agree with.
type Analysis[D Detector[R], R Report] struct {
	// Name is the client's stable identifier, one of ClientNames.
	Name string
	// Key identifies the detector among one database's detectors.
	Key string
	// Phase is the static phase Build is timed under ("": none).
	Phase string
	// Build constructs the optimistic detector for (prog, db).
	Build func(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (D, error)
	// Baseline runs the unoptimized sound analysis on e.
	Baseline func(prog *ir.Program, e Execution, opts RunOptions) (R, error)
}

// Race is the race-detection entry point: OptFT, with full FastTrack
// as its baseline.
func Race() Analysis[*OptFT, *RaceReport] {
	return Analysis[*OptFT, *RaceReport]{Name: "race", Key: "race", Phase: "race", Build: NewOptFTStatic, Baseline: RunFastTrack}
}

// Slice is the backward-slicing entry point for one criterion and
// static budget: OptSlice, with full Giri (every instruction traced, the
// default trace limit) as its baseline.
func Slice(criterion *ir.Instr, budget int) Analysis[*OptSlice, *SliceReport] {
	return Analysis[*OptSlice, *SliceReport]{
		Name:  "slice",
		Key:   "slice/" + strconv.Itoa(criterion.ID) + "/" + strconv.Itoa(budget),
		Phase: "slice",
		Build: func(prog *ir.Program, db *invariants.DB, cfg StaticConfig) (*OptSlice, error) {
			return NewOptSliceStatic(prog, db, criterion, budget, cfg)
		},
		Baseline: func(prog *ir.Program, e Execution, opts RunOptions) (*SliceReport, error) {
			return RunFullGiri(prog, criterion, e, opts, 0)
		},
	}
}

// Null is the null-checking entry point: OptNull, with a dynamic check
// at every dereference as its baseline.
func Null() Analysis[*OptNull, *NullReport] {
	return Analysis[*OptNull, *NullReport]{Name: "nullcheck", Key: "nullcheck", Phase: "nullproof", Build: NewOptNull, Baseline: RunNullAlways}
}
