// Command bench is the repository benchmark. It drives the analysis
// system only through public constructors and Run methods (core, interp,
// lang), times those calls from outside, checks every analysed result
// against an unoptimised reference, and prints every metric
// BENCHMARK.json names.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench --workload race-elided --seed 1 --seconds 20 --trace 0
//	bench compare A.jsonl B.jsonl
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics, derived from spans it also writes to
// .bench_build/trace-<workload>-seed<N>.json. Each metric is printed as
// "workload metric value unit"; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// See README.md for the workloads, metrics and the calibration unit.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int
	window   time.Duration
	trace    *Trace // nil: untraced run
	execs    int    // test executions per program (steady-state workloads)
}

// outcome is what a workload run measured: every metric value it
// computed, operations attempted and failed, and notes (sample counts)
// for the human-readable output.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// record is one line of a --record file, the input of compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   Result `json:"result"`
}

// The benchmark runs from the repository root: it reads its definition
// there and writes trace files under the build directory run.sh uses.
const (
	specPath = "BENCHMARK.json"
	traceDir = ".bench_build"
)

// specMetric and spec mirror BENCHMARK.json, the single source of the
// metric names, units and bounds.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: race-elided, race-traced or slice")
	seed := fs.Int("seed", 1, "workload seed (the test executions derive from it)")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	recordPath := fs.String("record", "", "append this run's result, tagged with workload and seed, to this JSON-lines file")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	sp, err := loadSpec(specPath)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	if *seconds <= 0 || *seed < 0 || (*trace != 0 && *trace != 1) {
		logf("need --seconds > 0, --seed >= 0 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), execs: execsPerProg}
	if *trace == 1 {
		cfg.trace = newTrace()
	}
	res, out, err := run(cfg, sp)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if cfg.trace != nil {
		path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := cfg.trace.write(path); err != nil {
			logf("write trace: %v", err)
			os.Exit(1)
		}
		logf("trace written to %s", path)
	}
	printResult(os.Stdout, cfg.workload, res, out.notes)
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace != nil, Result: *res}); err != nil {
			logf("record: %v", err)
			os.Exit(1)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and reports the metrics of the run's mode.
func run(cfg runConfig, sp *spec) (*Result, *outcome, error) {
	known := false
	for _, w := range sp.Workloads {
		known = known || w.Name == cfg.workload
	}
	if !known {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	out, err := measure(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := report(out, sp, cfg.trace != nil)
	return res, out, err
}

// measure runs one workload and returns every value it measured.
func measure(cfg runConfig) (*outcome, error) {
	if def, ok := steadyDefs[cfg.workload]; ok {
		return runSteady(cfg, def)
	}
	return nil, fmt.Errorf("workload %q is in the definition but not implemented", cfg.workload)
}

// report selects the metrics BENCHMARK.json lists for a mode: the
// end-to-end metrics, or with traced the per-layer ones.
func report(out *outcome, sp *spec, traced bool) (*Result, error) {
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	res := &Result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]Metric{}}
	for _, m := range want {
		v, ok := out.values[m.Name]
		switch {
		case !ok && traced:
			// A layer this workload never calls did no work.
			v = 0
		case !ok:
			return nil, fmt.Errorf("the workload did not measure %s", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("the workload measured %s = %v", m.Name, v)
		}
		res.Metrics[m.Name] = Metric{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// printResult prints one "workload metric value unit" line per metric,
// the notes as comments, and the JSON result as the last line.
func printResult(f *os.File, workload string, res *Result, notes []string) {
	w := bufio.NewWriter(f)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "# %s: %s\n", workload, n)
	}
	fmt.Fprintf(w, "# %s: attempted %d, failed %d\n", workload, res.Attempted, res.Failed)
	data, _ := json.Marshal(res) // plain structs of numbers and strings
	w.Write(data)
	w.WriteByte('\n')
	w.Flush()
}

func appendRecord(path string, r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
