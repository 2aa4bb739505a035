// Command acrossd runs the simulator as a long-lived HTTP service: clients
// submit replay jobs, poll their status, stream progress, and fetch results.
// Identical submissions are deduplicated against running jobs and against
// the content-addressed result store on disk, so repeated sweeps over the
// same configurations are served from cache — including across daemon
// restarts. Paper artifacts are rendered by cmd/experiments, not here.
//
//	acrossd -addr 127.0.0.1:8377 -store /var/tmp/across-results
//
// then:
//
//	curl -s -X POST localhost:8377/api/v1/jobs \
//	  -d '{"type":"replay","scheme":"Across-FTL","profile":"lun1","scale":0.05}'
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, queued and
// running jobs drain (bounded by -drain-timeout), and completed results are
// already on disk for the next process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"across/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8377", "listen address (host:port; port 0 picks a free port)")
		storeDir     = flag.String("store", "across-results", "result store directory")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queueCap     = flag.Int("queue", 1024, "queued-job capacity")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job timeout (0 = none; specs may override)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for outstanding jobs")
		retries      = flag.Int("retries", 2, "retry attempts for transiently failing jobs")
		sampleMs     = flag.Float64("sample-interval-ms", 50, "progress sampling interval in simulated ms")
		pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
	)
	flag.Parse()

	if err := run(*addr, service.Config{
		StoreDir:         *storeDir,
		Workers:          *workers,
		QueueCap:         *queueCap,
		DefaultTimeout:   *jobTimeout,
		Retries:          *retries,
		SampleIntervalMs: *sampleMs,
		EnablePprof:      *pprofFlag,
	}, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "acrossd:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg service.Config, drainTimeout time.Duration) error {
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()

	// Listen explicitly (rather than ListenAndServe) so ":0" reports the
	// bound port before any client needs it.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// The readiness line goes to stdout so scripts (and the smoke test) can
	// scrape the bound address.
	fmt.Printf("acrossd: listening on %s (store %s)\n", ln.Addr(), cfg.StoreDir)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us
	fmt.Println("acrossd: shutting down, draining jobs")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "acrossd: http shutdown:", err)
	}
	if err := svc.Drain(shutdownCtx); err != nil {
		return fmt.Errorf("draining jobs: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("acrossd: drained, bye")
	return nil
}
