// Command ancserve is the simulation-as-a-service daemon: it exposes
// the campaign engine over HTTP, running each distinct
// campaign once on a bounded job queue and fanning the NDJSON stream
// out to every subscriber that asked for it (see internal/serve).
//
// Usage:
//
//	ancserve [-addr :8787] [-queue 16] [-jobs 2] [-workers N]
//	         [-cache-bytes 67108864] [-write-timeout 10s]
//	         [-drain-timeout 30s]
//
// Endpoints:
//
//	GET  /healthz                     liveness
//	GET  /metrics                     Prometheus text exposition
//	GET  /v1/scenarios                the scenario registry
//	POST /v1/campaigns                submit, returns the canonical hash
//	GET  /v1/campaigns/{hash}         job status
//	DELETE /v1/campaigns/{hash}       cancel a job
//	GET  /v1/campaigns/{hash}/stream  subscribe (replay + live tail)
//	POST /v1/stream                   submit and stream in one request
//
// A served stream is byte-for-byte the output of
// `ancsim -scenario <name> -format ndjson` for the same parameters.
//
// SIGTERM/SIGINT drain gracefully: new submissions are rejected,
// running jobs finish (or are canceled after -drain-timeout), then the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges injected — context instead of
// signals, writers instead of the process streams — so the daemon
// lifecycle is testable end to end.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ancserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8787", "listen address (host:port; :0 picks a free port)")
		queue        = fs.Int("queue", 16, "max jobs admitted but not yet running")
		jobs         = fs.Int("jobs", 2, "concurrently executing jobs")
		workers      = fs.Int("workers", 0, "engine worker goroutines per job (0 = GOMAXPROCS); never changes the bytes")
		cacheBytes   = fs.Int64("cache-bytes", 64<<20, "byte budget for retained completed campaign streams")
		writeTimeout = fs.Duration("write-timeout", 10*time.Second, "per-line write deadline before a slow subscriber is evicted")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits before canceling jobs")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ancserve: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *queue < 1 || *jobs < 1 {
		fmt.Fprintf(stderr, "ancserve: -queue and -jobs must be ≥ 1, got %d and %d\n", *queue, *jobs)
		fs.Usage()
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "ancserve: -workers must be ≥ 0 (0 = GOMAXPROCS), got %d\n", *workers)
		fs.Usage()
		return 2
	}
	if *writeTimeout <= 0 || *drainTimeout <= 0 {
		fmt.Fprintf(stderr, "ancserve: -write-timeout and -drain-timeout must be positive\n")
		fs.Usage()
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "ancserve: %v\n", err)
		return 1
	}
	srv := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		Runners:      *jobs,
		CacheBytes:   *cacheBytes,
		WriteTimeout: *writeTimeout,
	})
	httpSrv := &http.Server{Handler: srv}
	// The actual address matters with :0; print it so scripts can scrape it.
	fmt.Fprintf(stdout, "ancserve: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "ancserve: %v\n", err)
		srv.Close()
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "ancserve: draining (timeout %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(stdout, "ancserve: drain timeout, jobs canceled\n")
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		httpSrv.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	fmt.Fprintln(stdout, "ancserve: stopped")
	return 0
}
