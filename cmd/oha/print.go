package main

// Result printers shared by local and remote mode: both render the
// daemon's wire result types, which local mode builds with the
// daemon's own result builders.

import (
	"fmt"
	"os"
	"strings"

	"oha"
	"oha/internal/core"
	"oha/internal/server"
)

// printProfile reports a profile on stderr (stdout may carry the
// database); a stored result also names its server-side id.
func printProfile(res server.ProfileJobResult) {
	where := ""
	if res.InvariantsID != "" {
		where = fmt.Sprintf(" %q version %d", res.InvariantsID, res.Version)
	}
	fmt.Fprintf(os.Stderr, "profiled %d executions; invariants%s: %+v\n", res.Runs, where, res.Counts)
}

// printRollback reports a run's mis-speculation and what re-executed
// it.
func printRollback(o server.JobOutcome, fallback string) {
	switch {
	case !o.RolledBack:
	case o.RolledBackTo == core.RollbackRefined:
		fmt.Printf("mis-speculation (%s): re-executed under a refined generation without %s\n", o.Violation, strings.Join(o.Refuted, ", "))
	default:
		fmt.Printf("mis-speculation (%s): rolled back to hybrid %s\n", o.Violation, fallback)
	}
}

func printRace(res server.RaceJobResult) {
	printRollback(res.JobOutcome, "analysis")
	if len(res.Races) == 0 {
		fmt.Println("no data races detected")
	}
	for _, r := range res.Races {
		fmt.Println(r)
	}
	fmt.Printf("instrumented ops: %d\n", res.InstrumentedOps)
}

// printDischarge reports the predicated static phase of a null check.
func printDischarge(discharged, sites int) {
	ratio := 0.0
	if sites > 0 {
		ratio = float64(discharged) / float64(sites)
	}
	fmt.Printf("static: discharged %d/%d null checks (%.0f%%)\n", discharged, sites, 100*ratio)
}

// printNull renders a null-check result, mapping nil sites to prog's
// source lines.
func printNull(prog *oha.Program, res server.NullJobResult) {
	printRollback(res.JobOutcome, "analysis")
	if len(res.NilSites) == 0 {
		fmt.Println("no nil dereferences observed")
	}
	for _, site := range res.NilSites {
		in := prog.Instrs[site]
		fmt.Printf("nil dereference at line %d (site %d), %s\n", in.Pos.Line, site, in.Op)
	}
	fmt.Printf("null checks executed: %d (deref sites: %d, statically discharged: %d)\n",
		res.CheckedDerefs, res.DerefSites, res.DischargedChecks)
}

// printSlice renders a slice result with its lines of src.
func printSlice(res server.SliceJobResult, src string) {
	printRollback(res.JobOutcome, "slicing")
	if res.SliceInstrs == 0 {
		fmt.Println("criterion never executed")
		return
	}
	fmt.Printf("dynamic slice of print #%d (criterion line %d): %d instructions, %d dynamic nodes\n",
		res.CriterionIndex, res.CriterionLine, res.SliceInstrs, res.DynNodes)
	srcLines := strings.Split(src, "\n")
	for _, l := range res.Lines {
		if l-1 >= 0 && l-1 < len(srcLines) {
			fmt.Printf("%4d: %s\n", l, strings.TrimRight(srcLines[l-1], " \t"))
		}
	}
}
