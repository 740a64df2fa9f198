// Command sweepworker is the long-running worker daemon of the distributed
// sweep executor: it accepts batches of serialized simulation cells over
// HTTP/JSON (POST /v1/run), runs each through the exact simulate path the
// in-process executor uses — sampled accounting auditor attached when the
// spec asks for it — and returns each result together with its audit
// identity, the shard's self-check the coordinator verifies before
// accepting the batch.
//
// Endpoints:
//
//	GET  /healthz  liveness + wire version + jobs completed
//	POST /v1/run   run one batch (distsweep wire format, versioned)
//	GET  /metrics  Prometheus text: worker counters and batch latency
//
// A batch's jobs run on min(GOMAXPROCS, jobs) lanes, handed out in job
// order; results come back in job order, and a failing batch names its
// lowest failing job. Between batches the daemon keeps a memoized bench per
// profile, the most recently read dynamic stream (packed, 4 bytes per
// record) and one engine arena per lane that ran at once. All of it is a
// pure cache of deterministic recipes; killing a worker mid-sweep never
// changes sweep output — the coordinator re-runs its batches elsewhere.
//
// Usage:
//
//	sweepworker -addr :8477
//	sweepworker -addr 127.0.0.1:0 -quiet   (port 0 picks a free port)
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

	"specfetch/internal/distsweep"
	"specfetch/internal/experiments"
	"specfetch/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main minus the process exit, for tests. The daemon's bound
// address is announced on stderr ("sweepworker: listening on ..."), which
// is how tests and scripts using -addr :0 learn the port.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8477", "listen address (host:port; port 0 picks a free port)")
	maxBatch := fs.Int("max-batch", 4096, "largest accepted batch, in jobs (positive)")
	quiet := fs.Bool("quiet", false, "suppress per-simulation progress on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *maxBatch <= 0 {
		_, _ = fmt.Fprintln(stderr, "usage: sweepworker [-addr host:port] [-max-batch N] [-quiet]")
		return 2
	}

	reg := obs.NewRegistry()
	runner := experiments.NewJobRunner(reg)
	if !*quiet {
		runner.Progress = func(msg string) {
			_, _ = fmt.Fprintln(stderr, "sweepworker: "+msg)
		}
	}
	srv := distsweep.NewServer(distsweep.ServerOptions{
		Runner:       runner.Run,
		Metrics:      reg,
		MaxBatchJobs: *maxBatch,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "sweepworker: %v\n", err)
		return 1
	}
	_, _ = fmt.Fprintf(stderr, "sweepworker: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		_, _ = fmt.Fprintf(stderr, "sweepworker: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			_, _ = fmt.Fprintf(stderr, "sweepworker: shutdown: %v\n", err)
		}
	}()
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_, _ = fmt.Fprintf(stderr, "sweepworker: %v\n", err)
		return 1
	}
	<-done
	return 0
}
