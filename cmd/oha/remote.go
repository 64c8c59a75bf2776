package main

// Remote mode: with -remote URL, oha runs its subcommand against a
// running ohad daemon (or any node of an ohad fleet — every node
// answers every request) instead of analyzing in-process. The program
// source is uploaded first (submission is idempotent: the id is the
// source digest), then the job is submitted and polled to completion.
// In this mode -inv names a server-side invariant-DB id, not a local
// file: `profile` stores its merged DB under that id, and the analysis
// subcommands (race, nullcheck, slice) speculate against it. Reports
// print through the same printers as in local mode. All requests go
// through the fleet client, so 429 sheds are retried with the server's
// Retry-After hint plus jitter, and 503s/transport blips back off
// exponentially.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"oha"
	"oha/internal/fleet"
	"oha/internal/server"
)

type remoteOpts struct {
	inputs    []int64
	seed      uint64
	runs      int
	out       string
	inv       string
	baseline  bool
	adaptive  bool
	criterion int
	budget    int
	src       string
}

func runRemote(base, cmd string, o remoteOpts) error {
	base = strings.TrimRight(base, "/")
	c := fleet.NewClient()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Upload the source; the daemon dedups by digest, so re-running a
	// command against the same file is free.
	var sub struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	status, err := c.JSON(ctx, http.MethodPost, base+"/v1/programs",
		map[string]string{"source": o.src}, &sub)
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return fmt.Errorf("submit program: HTTP %d", status)
	}

	job := map[string]any{
		"kind":       cmd,
		"program_id": sub.ID,
		"inputs":     o.inputs,
		"seed":       o.seed,
	}
	if cmd == "profile" {
		if o.inv == "" {
			return fmt.Errorf("remote profile needs -inv NAME (the server-side invariant-DB id to store under)")
		}
		job["runs"] = o.runs
		job["save_as"] = o.inv
	} else {
		if o.inv == "" && !o.baseline {
			return fmt.Errorf("remote %s needs -inv NAME (a server-side invariant-DB id; run `oha -remote %s profile` first)", cmd, base)
		}
		job["invariants_id"] = o.inv
		job["baseline"] = o.baseline
		job["adapt"] = o.adaptive
		job["budget"] = o.budget
		if o.criterion >= 0 {
			job["criterion"] = o.criterion
		}
	}

	// A rejected submit answers {"error": …}, which decodes into the
	// status's Error.
	var accepted server.JobStatus
	status, err = c.JSON(ctx, http.MethodPost, base+"/v1/jobs", job, &accepted)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("submit job: HTTP %d %s", status, accepted.Error)
	}
	fmt.Fprintf(os.Stderr, "oha: remote job %s on program %.12s…\n", accepted.ID, sub.ID)

	for {
		var st server.JobStatus
		if _, err := c.JSON(ctx, http.MethodGet, base+"/v1/jobs/"+accepted.ID, nil, &st); err != nil {
			return err
		}
		switch st.State {
		case server.StateDone:
		case server.StateFailed:
			return fmt.Errorf("remote job %s failed: %s", accepted.ID, st.Error)
		default:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		break
	}

	// result decodes the job's result payload into v, a pointer to the
	// kind's result type.
	result := func(v any) error {
		wrap := struct {
			Result any `json:"result"`
		}{v}
		_, err := c.JSON(ctx, http.MethodGet, base+"/v1/jobs/"+accepted.ID+"/result", nil, &wrap)
		return err
	}
	switch cmd {
	case "profile":
		var res server.ProfileJobResult
		if err := result(&res); err != nil {
			return err
		}
		printProfile(res)
		if o.out != "" {
			st, body, _, err := c.Text(ctx, http.MethodGet, base+"/v1/invariants/"+o.inv, nil)
			if err != nil {
				return err
			}
			if st != http.StatusOK {
				return fmt.Errorf("fetch invariants %q: HTTP %d", o.inv, st)
			}
			if err := os.WriteFile(o.out, body, 0o644); err != nil {
				return err
			}
		}

	case "race":
		var res server.RaceJobResult
		if err := result(&res); err != nil {
			return err
		}
		printAdaptive(res.JobOutcome)
		printRace(res)

	case "nullcheck":
		var res server.NullJobResult
		if err := result(&res); err != nil {
			return err
		}
		// The daemon compiled the same source: compiling it here maps
		// nil sites back to their lines.
		prog, err := oha.Compile(o.src)
		if err != nil {
			return fmt.Errorf("compile source locally: %w", err)
		}
		printAdaptive(res.JobOutcome)
		// The result's static counts are the predicated proof's unless
		// the run rolled back onto the sound one.
		if !o.baseline && !res.RolledBack {
			printDischarge(res.DischargedChecks, res.DerefSites)
		}
		printNull(prog, res)

	case "slice":
		var res server.SliceJobResult
		if err := result(&res); err != nil {
			return err
		}
		printAdaptive(res.JobOutcome)
		printSlice(res, o.src)
	}

	r429, rNet := c.Retries()
	if r429+rNet > 0 {
		fmt.Fprintf(os.Stderr, "oha: retried %d shed (429) and %d transient failures with backoff\n", r429, rNet)
	}
	return nil
}

// printAdaptive heads an adaptive result with the generation the job
// left published (the generation history needs the in-process
// manager).
func printAdaptive(o server.JobOutcome) {
	if o.Generation > 0 {
		fmt.Printf("adaptive: generation %d\n", o.Generation)
	}
}
