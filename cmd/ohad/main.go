// Command ohad runs the OHA analysis daemon: a long-running HTTP
// service that keeps compiled MiniLang programs, versioned invariant
// databases, and memoized static-analysis artifacts warm across
// requests, and executes profile, race, slice and nullcheck jobs
// asynchronously on a bounded worker pool.
//
// Usage:
//
//	ohad [-addr :8344] [-workers N] [-queue N] [-job-timeout 60s]
//	     [-max-steps N] [-cache-dir DIR] [-state-dir DIR]
//	     [-cache-entries N] [-cache-bytes N]
//	     [-cache-max-age 72h] [-cache-max-disk-bytes N] [-cache-prune-interval 1h]
//	     [-peers host:port,...] [-advertise host:port] [-replicas N]
//	     [-fastpath on|off] [-pprof]
//
// Quick start:
//
//	ohad -addr :8344 &
//	curl -s localhost:8344/v1/programs -d '{"source":"func main() { print(input(0)); }"}'
//	curl -s localhost:8344/v1/jobs -d '{"kind":"profile","program_id":"<id>","inputs":[7]}'
//	curl -s localhost:8344/v1/jobs/job-1
//	curl -s localhost:8344/v1/jobs/job-1/result
//
// Fleet mode: with -peers (a static comma-separated member list that
// includes this node's -advertise address), the daemon joins a
// sharded, replicated fleet — jobs route to the owner of their
// program digest on a consistent-hash ring, the invariant store
// replicates through an append-only log, and any node answers any
// request. See DESIGN.md §15.
//
// SIGINT/SIGTERM drain gracefully: new submissions are rejected with
// 503 while queued and running jobs finish (bounded by -drain-timeout);
// /readyz flips to 503 immediately so routers stop placing work here,
// while /healthz keeps answering 200 (the process is alive).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oha/internal/artifacts"
	"oha/internal/fleet"
	"oha/internal/server"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", 2, "concurrent analysis jobs")
	queue := flag.Int("queue", 64, "queued-job limit (beyond running jobs); full queue returns HTTP 429")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-job execution ceiling")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain ceiling")
	maxSteps := flag.Uint64("max-steps", 0, "per-execution instruction bound (0: interpreter default)")
	cacheDir := flag.String("cache-dir", "", "persist portable static artifacts under this directory (default: in-memory only)")
	cacheEntries := flag.Int("cache-entries", 0, "LRU bound on in-memory artifact-cache entries (0: unbounded)")
	cacheBytes := flag.Int64("cache-bytes", 0, "LRU bound on estimated in-memory artifact-cache bytes (0: unbounded)")
	cacheMaxAge := flag.Duration("cache-max-age", 0, "prune -cache-dir artifacts older than this (0: never)")
	cacheMaxDisk := flag.Int64("cache-max-disk-bytes", 0, "prune oldest -cache-dir artifacts beyond this byte budget (0: unbounded)")
	cachePruneInterval := flag.Duration("cache-prune-interval", time.Hour, "how often the disk-tier pruner runs (given -cache-dir and a prune bound)")
	stateDir := flag.String("state-dir", "", "persist invariant-DB versions under this directory (default: in-memory only)")
	staticWorkers := flag.Int("static-workers", 0, "parallel static-solver workers (0: GOMAXPROCS, 1: sequential)")
	fastpath := flag.String("fastpath", "on", "compiled engine: inline analysis fast paths (on|off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
	peers := flag.String("peers", "", "fleet mode: static member list, comma-separated host:port (must include -advertise)")
	advertise := flag.String("advertise", "", "fleet mode: this node's address as spelled in -peers (default: -addr)")
	replicas := flag.Int("replicas", 2, "fleet mode: replica-set width for programs and invariant shards")
	vnodes := flag.Int("vnodes", 64, "fleet mode: virtual nodes per member on the placement ring")
	flag.Parse()

	cache := artifacts.New(*cacheDir).Bound(*cacheEntries, *cacheBytes)
	if *cacheDir != "" && (*cacheMaxAge > 0 || *cacheMaxDisk > 0) {
		cache.PruneDisk(*cacheMaxAge, *cacheMaxDisk)
		go func() {
			for range time.Tick(*cachePruneInterval) {
				if n := cache.PruneDisk(*cacheMaxAge, *cacheMaxDisk); n > 0 {
					fmt.Fprintf(os.Stderr, "ohad: pruned %d disk artifacts\n", n)
				}
			}
		}()
	}
	scfg := server.Config{
		Workers:       *workers,
		QueueSize:     *queue,
		JobTimeout:    *jobTimeout,
		MaxSteps:      *maxSteps,
		Cache:         cache,
		StateDir:      *stateDir,
		StaticWorkers: *staticWorkers,
		NoFastPath:    *fastpath == "off",
	}
	if *fastpath != "on" && *fastpath != "off" {
		fmt.Fprintf(os.Stderr, "ohad: bad -fastpath %q (want on or off)\n", *fastpath)
		os.Exit(2)
	}

	var (
		handler  http.Handler
		shutdown func(context.Context) error
	)
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = *addr
		}
		var members []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		node, err := fleet.NewNode(fleet.Config{
			Self:     self,
			Peers:    members,
			Replicas: *replicas,
			VNodes:   *vnodes,
			Server:   scfg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ohad:", err)
			os.Exit(1)
		}
		node.Start()
		handler = node.Handler()
		shutdown = node.Shutdown
		fmt.Fprintf(os.Stderr, "ohad: fleet node %s in %v (replicas=%d)\n", self, members, *replicas)
	} else {
		srv, err := server.New(scfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ohad:", err)
			os.Exit(1)
		}
		handler = srv.Handler()
		shutdown = srv.Shutdown
	}

	if *pprofOn {
		// Mount the profiling handlers on a private mux wrapping the
		// daemon's handler — never the DefaultServeMux (whose pprof
		// routes the import registers as a side effect but which this
		// process never serves), so profiling is strictly opt-in.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Fprintln(os.Stderr, "ohad: pprof handlers at /debug/pprof/")
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ohad: listening on %s (workers=%d queue=%d job-timeout=%s)\n",
		*addr, *workers, *queue, *jobTimeout)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "ohad: %v: draining (max %s)\n", sig, *drainTimeout)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "ohad:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ohad: drain incomplete:", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "ohad: http shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "ohad: bye")
}
