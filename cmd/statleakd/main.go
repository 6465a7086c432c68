// Command statleakd is the optimization service daemon: it exposes
// the optimizers behind an HTTP JSON job API with Prometheus metrics
// and pprof, running jobs on a bounded worker pool.
//
// Usage:
//
//	statleakd -addr :8080 -workers 4 -queue 32 -result-ttl 15m \
//	          -job-timeout 1h
//
// Endpoints: POST/GET/DELETE /v1/jobs[/{id}[/result]], /metrics,
// /healthz, /debug/pprof/. See internal/server and the README
// quickstart for a curl walkthrough; cmd/statleakctl is the
// command-line client.
//
// On SIGINT/SIGTERM the daemon stops accepting jobs, drains queued
// and running work for -drain-timeout, then force-cancels whatever is
// left and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 2, "concurrent optimization jobs")
		queueDepth   = flag.Int("queue", 16, "pending-job queue capacity")
		resultTTL    = flag.Duration("result-ttl", 15*time.Minute, "how long finished jobs stay fetchable")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for running jobs")
		jobTimeout   = flag.Duration("job-timeout", time.Hour, "per-job wall-clock cap and default (0 disables; requests may ask for less via timeout_sec)")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := obs.NewLogger(os.Stderr, lvl)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	mgr := server.NewManager(server.Config{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		ResultTTL:     *resultTTL,
		MaxJobTimeout: *jobTimeout,
		Log:           log,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(mgr),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Info("statleakd listening", "addr", *addr, "workers", *workers, "queue", *queueDepth)

	select {
	case err := <-errc:
		// Listener died before any signal: nothing to drain.
		fatal(err)
	case <-ctx.Done():
	}
	log.Info("shutdown: draining", "timeout", drainTimeout.String())

	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Warn("http shutdown incomplete", "err", err.Error())
	}
	if err := mgr.Shutdown(shutCtx); err != nil {
		log.Warn("drain deadline hit; running jobs cancelled", "err", err.Error())
	} else {
		log.Info("drained cleanly")
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "statleakd:", err)
	os.Exit(1)
}
