package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain implements `bench compare A.jsonl B.jsonl`: for each
// (workload, end-to-end metric) it prints each set's median and
// quartiles and a verdict against the metric's bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		logf("%v", err)
		return 2
	}
	var sets [2]map[string][]Result
	for i := range sets {
		if sets[i], err = readRecords(args[i]); err != nil {
			logf("%v", err)
			return 2
		}
	}
	if err := compare(os.Stdout, sp, sets[0], sets[1]); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// readRecords loads the untraced results of a --record file by workload.
func readRecords(path string) (map[string][]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]Result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

// verdict judges set B against set A for one metric. worse is B's
// median change in the metric's worse direction, relative to A's
// median; spread is the larger of the two sets' interquartile ranges
// relative to their medians. A change inside the bound is "same"; when
// the spread exceeds the bound the sets cannot tell a change of that
// size from noise, so the verdict is "unresolved" unless every run of
// one set beats every run of the other.
func verdict(m specMetric, a, b []float64) (v string, worse, spread float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worse = sign * ratio(bm-am, am)
	spread = max(ratio(a3-a1, am), ratio(b3-b1, bm))
	// quartiles sorted a and b: compare the sets' extremes.
	bBetter, bWorse := b[len(b)-1] < a[0], b[0] > a[len(a)-1]
	if m.Better == "higher" {
		bBetter, bWorse = b[0] > a[len(a)-1], b[len(b)-1] < a[0]
	}
	switch {
	case spread > m.Bound && bBetter:
		return "better", worse, spread
	case spread > m.Bound && bWorse && worse > m.Bound:
		return "worse", worse, spread
	case spread > m.Bound:
		return "unresolved", worse, spread
	case worse > m.Bound:
		return "worse", worse, spread
	case -worse > m.Bound:
		return "better", worse, spread
	}
	return "same", worse, spread
}

func compare(w io.Writer, sp *spec, a, b map[string][]Result) error {
	names := map[string]bool{}
	for n := range a {
		names[n] = true
	}
	for n := range b {
		names[n] = true
	}
	workloads := make([]string, 0, len(names))
	for n := range names {
		workloads = append(workloads, n)
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tworse by\tspread\tbound\tverdict")
	for _, wl := range workloads {
		if len(a[wl]) == 0 || len(b[wl]) == 0 {
			fmt.Fprintf(tw, "%s\t(all)\t\t%d runs\t%d runs\t\t\t\tmissing\n", wl, len(a[wl]), len(b[wl]))
			continue
		}
		for _, m := range sp.EndToEnd {
			av, bv := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t%.3g\tmissing\n", wl, m.Name, m.Unit, m.Bound)
				continue
			}
			v, worse, spread := verdict(m, av, bv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n", wl, m.Name, m.Unit,
				summary(av), summary(bv), 100*worse, 100*spread, 100*m.Bound, v)
		}
	}
	return tw.Flush()
}

func values(rs []Result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}
