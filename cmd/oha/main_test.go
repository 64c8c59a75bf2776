package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"oha/internal/server"
)

// TestMain lets the test binary stand in for the oha command: with
// OHA_TEST_MAIN=1 in its environment it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("OHA_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runOHA runs `oha args...` in a child process and returns its stdout,
// stderr and exit error.
func runOHA(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OHA_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// goldenCase is one program with its profiling flags and the
// execution each analysis subcommand runs.
type goldenCase struct {
	name, file string
	profile    []string
	analysis   []string
	nullcheck  []string // nil: analysis
}

func (c goldenCase) flags(cmd string) []string {
	if cmd == "nullcheck" && c.nullcheck != nil {
		return c.nullcheck
	}
	return c.analysis
}

// goldenCases: the quickstart program profiled on its analyzed input,
// the same program profiled where the worker loop never runs (every
// client mis-speculates and adapts), and a generated pointer-discipline
// program (progen.GenerateNullable seed 3) whose null check observes a
// nil dereference and refines twice.
var goldenCases = []goldenCase{
	{name: "quickstart", file: "quickstart.ml",
		profile: []string{"-in", "25", "-runs", "8"}, analysis: []string{"-in", "25", "-seed", "3"}},
	{name: "cold", file: "quickstart.ml",
		profile: []string{"-in", "0", "-runs", "4"}, analysis: []string{"-in", "3", "-seed", "2"}},
	{name: "nullable", file: "nullable.ml",
		profile:   []string{"-in", "50,60,70,3,5", "-runs", "8"},
		analysis:  []string{"-in", "50,60,70,30,5"},
		nullcheck: []string{"-in", "950,980,990,6,2"}},
}

var (
	analysisCmds = []string{"race", "nullcheck", "slice"}
	modes        = []string{"plain", "baseline", "adapt"}
)

func modeFlags(mode string) []string {
	if mode == "plain" {
		return nil
	}
	return []string{"-" + mode}
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func cat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestGoldenLocal pins every subcommand's local stdout.
func TestGoldenLocal(t *testing.T) {
	for _, c := range goldenCases {
		file := filepath.Join("testdata", c.file)
		out, stderr, err := runOHA(t, cat([]string{"profile", file}, c.profile)...)
		if err != nil {
			t.Fatalf("%s profile: %v\n%s", c.name, err, stderr)
		}
		if want := golden(t, c.name+".profile"); out != want {
			t.Fatalf("%s profile: database differs from golden:\n%s", c.name, out)
		}
		inv := filepath.Join(t.TempDir(), "inv.txt")
		if err := os.WriteFile(inv, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, cmd := range analysisCmds {
			for _, mode := range modes {
				id := c.name + "." + cmd + "." + mode
				out, stderr, err := runOHA(t, cat([]string{cmd, file, "-inv", inv}, c.flags(cmd), modeFlags(mode))...)
				if err != nil {
					t.Errorf("%s: %v\n%s", id, err, stderr)
					continue
				}
				if want := golden(t, id); out != want {
					t.Errorf("%s: stdout differs from golden\n got:\n%s\nwant:\n%s", id, out, want)
				}
			}
		}
	}
}

// adaptiveLine matches the adaptive summary (local: a footer with the
// generation history) and header (remote), which differ by design: the
// history reads the in-process manager.
var adaptiveLine = regexp.MustCompile(`^(adaptive: |  generation \d+ refined)`)

// TestGoldenAdaptiveIsPlain: an adaptive run is the plain run plus the
// adaptive summary. Its rollback chain is the only refinement loop, so
// with the summary removed every adaptive golden equals the plain one.
func TestGoldenAdaptiveIsPlain(t *testing.T) {
	for _, c := range goldenCases {
		for _, cmd := range analysisCmds {
			id := c.name + "." + cmd
			var keep []string
			for _, l := range strings.SplitAfter(golden(t, id+".adapt"), "\n") {
				if !adaptiveLine.MatchString(l) {
					keep = append(keep, l)
				}
			}
			if got, want := strings.Join(keep, ""), golden(t, id+".plain"); got != want {
				t.Errorf("%s: adaptive report differs from the plain one\n got:\n%s\nwant:\n%s", id, got, want)
			}
		}
	}
}

// body is the report with the adaptive header and footer removed, and
// with the line the two modes are known to compute differently: after
// a rollback the result carries the re-execution's discharge count, so
// only local mode prints the predicated one.
func body(out string) string {
	rolledBack := strings.Contains(out, "mis-speculation (")
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		switch {
		case adaptiveLine.MatchString(l),
			rolledBack && strings.HasPrefix(l, "static: discharged "):
			continue
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "\n")
}

var countsRE = regexp.MustCompile(`\{[^}]*\}`)

// TestRemoteParity runs every subcommand with -remote against an
// in-process daemon: the stored database equals the local profile,
// the profile counts match, and each report body equals the local
// golden one.
func TestRemoteParity(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 2, JobTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()

	for _, c := range goldenCases {
		file := filepath.Join("testdata", c.file)
		_, localErr, err := runOHA(t, cat([]string{"profile", file}, c.profile)...)
		if err != nil {
			t.Fatalf("%s local profile: %v", c.name, err)
		}
		for _, cmd := range analysisCmds {
			// One database id per subcommand: each adaptive job gets a
			// fresh manager, as a local run does.
			inv := c.name + "-" + cmd
			dbFile := filepath.Join(t.TempDir(), "inv.txt")
			_, stderr, err := runOHA(t, cat([]string{"profile", file, "-remote", ts.URL, "-inv", inv, "-o", dbFile}, c.profile)...)
			if err != nil {
				t.Fatalf("%s remote profile: %v\n%s", inv, err, stderr)
			}
			if db, _ := os.ReadFile(dbFile); string(db) != golden(t, c.name+".profile") {
				t.Fatalf("%s: stored database differs from the local profile:\n%s", inv, db)
			}
			if got, want := countsRE.FindString(stderr), countsRE.FindString(localErr); got == "" || got != want {
				t.Fatalf("%s: remote profile counts %q, local %q", inv, got, want)
			}
			for _, mode := range modes {
				id := c.name + "." + cmd + "." + mode
				out, stderr, err := runOHA(t, cat([]string{cmd, file, "-remote", ts.URL, "-inv", inv}, c.flags(cmd), modeFlags(mode))...)
				if err != nil {
					t.Errorf("%s remote: %v\n%s", id, err, stderr)
					continue
				}
				if got, want := body(out), body(golden(t, id)); got != want {
					t.Errorf("%s: remote body differs from local\n got:\n%s\nwant:\n%s", id, got, want)
				}
			}
		}
	}
}

// TestRemoteSubmitError: a rejected job submit reports the server's
// own error message.
func TestRemoteSubmitError(t *testing.T) {
	for _, tc := range []struct {
		status int
		msg    string
	}{
		{http.StatusBadRequest, "race job needs invariants_id (or baseline=true)"},
		{http.StatusServiceUnavailable, "server is draining"},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/programs", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":"p1","created":true}`)) //nolint:errcheck
		})
		mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(tc.status)
			w.Write([]byte(`{"error":"` + tc.msg + `"}`)) //nolint:errcheck
		})
		ts := httptest.NewServer(mux)
		_, stderr, err := runOHA(t, "race", filepath.Join("testdata", "quickstart.ml"), "-remote", ts.URL, "-inv", "x")
		ts.Close()
		if err == nil {
			t.Fatalf("HTTP %d: submit succeeded", tc.status)
		}
		if !strings.Contains(stderr, tc.msg) {
			t.Errorf("HTTP %d: stderr %q lacks the server's message %q", tc.status, stderr, tc.msg)
		}
	}
}
