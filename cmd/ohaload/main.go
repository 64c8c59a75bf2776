// Command ohaload is a latency-measuring load generator for an ohad
// daemon or fleet. It synthesizes a corpus of MiniLang programs with
// the progen generator, uploads them, profiles each into a server-side
// invariant DB, and then drives a configurable mix of profile, race,
// slice, and nullcheck jobs at the fleet from concurrent workers —
// round-robining submissions across every target frontend so digest
// routing and forwarding are on the measured path. When the mix
// includes nullcheck jobs, every other corpus program comes from the
// pointer-discipline generator (progen.GenerateNullable) so the null
// checker has dereference sites to discharge; nullcheck jobs target
// those programs, other kinds draw from the whole corpus.
//
// Every submission goes through the fleet client: 429 sheds are
// retried with the server's Retry-After hint plus jitter, transient
// failures back off exponentially. Per-job latency is measured from
// submission to terminal state and aggregated into p50/p95/p99 per
// kind and overall, alongside throughput, error counts, retry
// counters, and a scrape of each target's /metrics (artifact-cache
// hit rates, fleet routing counters). The report is written as JSON
// to -out (default stdout), one self-describing record per run.
//
// Usage:
//
//	ohaload -targets http://127.0.0.1:8344,http://127.0.0.1:8345 \
//	        -programs 8 -jobs 500 -concurrency 16 \
//	        -mix profile=0.2,race=0.5,slice=0.3 -out fleet.json
//
// With -coldstart, ohaload instead measures AOT artifact persistence:
// it boots an in-process daemon twice over the same cache/state dirs
// and reports the first race job's latency cold (empty tiers) vs warm
// (restart over the persisted disk tier, which must serve the job with
// zero compile and zero solver cache misses).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oha/internal/core"
	"oha/internal/fleet"
	"oha/internal/progen"
)

type config struct {
	Targets     []string `json:"targets"`
	Programs    int      `json:"programs"`
	Jobs        int      `json:"jobs"`
	Duration    string   `json:"duration,omitempty"`
	Concurrency int      `json:"concurrency"`
	Mix         string   `json:"mix"`
	ProfileRuns int      `json:"profile_runs"`
	Seed        uint64   `json:"seed"`
}

// sample is one measured job.
type sample struct {
	kind    string
	latency time.Duration
	err     error
}

// latencyStats summarizes a set of samples in milliseconds.
type latencyStats struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

type report struct {
	Config       config                        `json:"config"`
	StartedAt    string                        `json:"started_at"`
	WallSeconds  float64                       `json:"wall_seconds"`
	Submitted    int                           `json:"jobs_submitted"`
	Succeeded    int                           `json:"jobs_succeeded"`
	Failed       int                           `json:"jobs_failed"`
	Throughput   float64                       `json:"throughput_jobs_per_sec"`
	Latency      map[string]latencyStats       `json:"latency"`
	Retries429   int64                         `json:"client_retries_after_429"`
	RetriesNet   int64                         `json:"client_retries_after_net"`
	Errors       map[string]int                `json:"errors,omitempty"`
	FleetMetrics map[string]map[string]float64 `json:"fleet_metrics"`
}

func main() {
	targets := flag.String("targets", "http://127.0.0.1:8344", "comma-separated fleet frontend base URLs")
	programs := flag.Int("programs", 8, "synthetic corpus size")
	jobs := flag.Int("jobs", 200, "measured jobs to drive (0: until -duration elapses)")
	duration := flag.Duration("duration", 0, "stop submitting after this long (0: until -jobs are done)")
	concurrency := flag.Int("concurrency", 8, "concurrent submitting workers")
	mixFlag := flag.String("mix", "profile=0.2,race=0.5,slice=0.3", "job-kind weights (kinds: profile, race, slice, nullcheck)")
	profileRuns := flag.Int("runs", 4, "executions per profile job")
	seed := flag.Uint64("seed", 1, "corpus and scheduling seed")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job completion deadline")
	coldstart := flag.Bool("coldstart", false, "measure cold vs warm first-job latency against an in-process daemon restarted over a persistent cache (ignores -targets)")
	flag.Parse()

	cfg := config{
		Programs:    *programs,
		Jobs:        *jobs,
		Concurrency: *concurrency,
		Mix:         *mixFlag,
		ProfileRuns: *profileRuns,
		Seed:        *seed,
	}
	if *coldstart {
		if cfg.Programs <= 0 || cfg.Concurrency <= 0 {
			fatal(fmt.Errorf("-coldstart needs -programs > 0 and -concurrency > 0"))
		}
		cfg.Mix = "coldstart"
		runColdstart(cfg, *jobTimeout, *out)
		return
	}
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
			cfg.Targets = append(cfg.Targets, t)
		}
	}
	if len(cfg.Targets) == 0 || cfg.Programs <= 0 || cfg.Concurrency <= 0 {
		fatal(fmt.Errorf("need at least one -targets URL, -programs > 0, -concurrency > 0"))
	}
	if *duration > 0 {
		cfg.Duration = duration.String()
	}
	if *jobs <= 0 && *duration <= 0 {
		fatal(fmt.Errorf("one of -jobs or -duration must bound the run"))
	}
	kinds, weights, err := parseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}

	client := fleet.NewClient()
	ctx := context.Background()

	// Corpus: generate, upload, and profile each program so race and
	// slice jobs have a server-side invariant DB to speculate against.
	// Setup jobs are not part of the measured run.
	hasNull := false
	for _, k := range kinds {
		if k == "nullcheck" {
			hasNull = true
		}
	}
	ids := make([]string, cfg.Programs)
	invIDs := make([]string, cfg.Programs)
	var nullable []int
	for i := range ids {
		var src string
		if hasNull && i%2 == 1 {
			src = progen.GenerateNullable(cfg.Seed+uint64(i), progen.DefaultNullableConfig())
			nullable = append(nullable, i)
		} else {
			src = progen.Generate(cfg.Seed+uint64(i), progen.DefaultConfig())
		}
		target := cfg.Targets[i%len(cfg.Targets)]
		var sub struct {
			ID string `json:"id"`
		}
		status, err := client.JSON(ctx, http.MethodPost, target+"/v1/programs",
			map[string]string{"source": src}, &sub)
		if err != nil || status >= 300 {
			fatal(fmt.Errorf("upload program %d to %s: status %d, %v", i, target, status, err))
		}
		ids[i] = sub.ID
		invIDs[i] = fmt.Sprintf("load-%d", i)
		job := map[string]any{
			"kind": "profile", "program_id": sub.ID,
			"runs": cfg.ProfileRuns, "save_as": invIDs[i],
		}
		if _, err := runJob(ctx, client, target, job, *jobTimeout); err != nil {
			fatal(fmt.Errorf("seed profile for program %d: %v", i, err))
		}
	}
	fmt.Fprintf(os.Stderr, "ohaload: corpus ready — %d programs profiled across %d targets\n",
		cfg.Programs, len(cfg.Targets))

	// Measured run.
	var (
		next      atomic.Int64
		mu        sync.Mutex
		samples   []sample
		wg        sync.WaitGroup
		deadline  time.Time
		started   = time.Now()
		startWall = started.UTC().Format(time.RFC3339)
	)
	if *duration > 0 {
		deadline = started.Add(*duration)
	}
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(worker)*7919))
			for {
				n := next.Add(1)
				if cfg.Jobs > 0 && int(n) > cfg.Jobs {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				kind := pickKind(rng, kinds, weights)
				pi := rng.Intn(cfg.Programs)
				if kind == "nullcheck" && len(nullable) > 0 {
					pi = nullable[rng.Intn(len(nullable))]
				}
				job := map[string]any{
					"kind":       kind,
					"program_id": ids[pi],
					"seed":       uint64(rng.Intn(1 << 16)),
					"inputs":     []int64{int64(rng.Intn(100)), int64(rng.Intn(100))},
				}
				switch kind {
				case "profile":
					job["runs"] = cfg.ProfileRuns
					job["save_as"] = invIDs[pi]
					job["merge"] = true
				default: // an analysis client (parseMix admits no other kind)
					job["invariants_id"] = invIDs[pi]
				}
				t0 := time.Now()
				_, err := runJob(ctx, client, cfg.Targets[int(n)%len(cfg.Targets)], job, *jobTimeout)
				mu.Lock()
				samples = append(samples, sample{kind: kind, latency: time.Since(t0), err: err})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(started)

	rep := report{
		Config:      cfg,
		StartedAt:   startWall,
		WallSeconds: wall.Seconds(),
		Latency:     map[string]latencyStats{},
		Errors:      map[string]int{},
	}
	var all []time.Duration
	byKind := map[string][]time.Duration{}
	for _, s := range samples {
		rep.Submitted++
		if s.err != nil {
			rep.Failed++
			rep.Errors[truncErr(s.err)]++
			continue
		}
		rep.Succeeded++
		all = append(all, s.latency)
		byKind[s.kind] = append(byKind[s.kind], s.latency)
	}
	rep.Latency["overall"] = summarize(all)
	for k, ds := range byKind {
		rep.Latency[k] = summarize(ds)
	}
	if wall > 0 {
		rep.Throughput = float64(rep.Succeeded) / wall.Seconds()
	}
	rep.Retries429, rep.RetriesNet = client.Retries()
	rep.FleetMetrics = scrapeMetrics(ctx, client, cfg.Targets)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	ov := rep.Latency["overall"]
	fmt.Fprintf(os.Stderr,
		"ohaload: %d jobs in %.1fs (%.1f/s): p50 %.0fms p95 %.0fms p99 %.0fms, %d failed, %d+%d retries\n",
		rep.Submitted, rep.WallSeconds, rep.Throughput, ov.P50MS, ov.P95MS, ov.P99MS,
		rep.Failed, rep.Retries429, rep.RetriesNet)
}

// runJob submits a job to target and polls it to a terminal state,
// returning the job id.
func runJob(ctx context.Context, c *fleet.Client, target string, job map[string]any, timeout time.Duration) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var acc struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	status, err := c.JSON(ctx, http.MethodPost, target+"/v1/jobs", job, &acc)
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d %s", status, acc.Error)
	}
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		pstatus, err := c.JSON(ctx, http.MethodGet, target+"/v1/jobs/"+acc.ID, nil, &st)
		if err != nil {
			return acc.ID, err
		}
		if pstatus != http.StatusOK && pstatus != http.StatusAccepted {
			return acc.ID, fmt.Errorf("poll: HTTP %d %s", pstatus, st.Error)
		}
		switch st.State {
		case "done":
			return acc.ID, nil
		case "failed":
			return acc.ID, fmt.Errorf("job failed: %s", st.Error)
		}
		select {
		case <-ctx.Done():
			return acc.ID, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// parseMix turns "profile=0.2,race=0.5,slice=0.3" into kinds and
// cumulative weights.
func parseMix(s string) (kinds []string, cum []float64, err error) {
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, nil, fmt.Errorf("bad -mix entry %q (want kind=weight)", part)
		}
		if !slices.Contains(core.ClientNames, k) && k != "profile" {
			return nil, nil, fmt.Errorf("unknown job kind %q in -mix (want profile or one of %v)", k, core.ClientNames)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return nil, nil, fmt.Errorf("bad weight %q for %s in -mix", v, k)
		}
		if w == 0 {
			continue
		}
		total += w
		kinds = append(kinds, k)
		cum = append(cum, total)
	}
	if total <= 0 {
		return nil, nil, fmt.Errorf("-mix %q has no positive weights", s)
	}
	for i := range cum {
		cum[i] /= total
	}
	return kinds, cum, nil
}

func pickKind(rng *rand.Rand, kinds []string, cum []float64) string {
	x := rng.Float64()
	for i, c := range cum {
		if x <= c {
			return kinds[i]
		}
	}
	return kinds[len(kinds)-1]
}

func summarize(ds []time.Duration) latencyStats {
	st := latencyStats{Count: len(ds)}
	if len(ds) == 0 {
		return st
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	q := func(p float64) float64 { return ms(ds[int(p*float64(len(ds)-1)+0.5)]) }
	st.MeanMS = ms(sum) / float64(len(ds))
	st.P50MS = q(0.50)
	st.P95MS = q(0.95)
	st.P99MS = q(0.99)
	st.MaxMS = ms(ds[len(ds)-1])
	return st
}

// scrapeMetrics pulls each target's /metrics and keeps the counters
// that tell the fleet story: artifact-cache hit rates, digest routing,
// shedding, and replication.
func scrapeMetrics(ctx context.Context, c *fleet.Client, targets []string) map[string]map[string]float64 {
	keep := func(name string) bool {
		return strings.HasPrefix(name, "ohad_artifact_cache_") ||
			strings.HasPrefix(name, "oha_artifacts_") ||
			strings.HasPrefix(name, "oha_fleet_") ||
			name == "ohad_jobs_rejected_total" ||
			name == "ohad_jobs_done_total" ||
			name == "ohad_jobs_failed_total"
	}
	out := map[string]map[string]float64{}
	for _, t := range targets {
		status, body, _, err := c.Text(ctx, http.MethodGet, t+"/metrics", nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		vals := map[string]float64{}
		sc := bufio.NewScanner(strings.NewReader(string(body)))
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 || !keep(fields[0]) {
				continue
			}
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				vals[fields[0]] = v
			}
		}
		out[t] = vals
	}
	return out
}

func truncErr(err error) string {
	s := err.Error()
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ohaload:", err)
	os.Exit(1)
}
