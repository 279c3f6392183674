// Command cafa-serve runs the CAFA analyzer as a long-lived HTTP
// service: POST a trace, poll the job, fetch the same JSON report,
// evidence bundle, and HTML triage page the batch CLI writes —
// byte-identical, from shared rendering code. Results are cached by
// trace content and analysis configuration, so re-submitting a known
// trace skips analysis entirely. A new trace is decoded, validated and
// swept by the per-entry passes while the submit request is answered,
// so a malformed trace is a 400 at submit; the queued job builds the
// causality models and runs the detector.
//
// Usage:
//
//	cafa-serve [-addr :7420] [-workers N] [-queue 64]
//	           [-job-timeout 2m] [-cache-mb 256] [-max-body-mb 64]
//	           [-results-dir DIR] [-replay-scale 100]
//	cafa-serve -selftest     # in-process end-to-end smoke run
//
// SIGINT/SIGTERM drain gracefully: intake stops, queued and running
// jobs finish and persist, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cafa/internal/buildinfo"
	"cafa/internal/obs"
	"cafa/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":7420", "HTTP listen address")
		workers     = flag.Int("workers", 0, "concurrent analyses (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "accepted-but-not-running job bound (beyond it: 429)")
		jobTimeout  = flag.Duration("job-timeout", 2*time.Minute, "per-job analysis timeout")
		cacheMB     = flag.Int64("cache-mb", 256, "result cache budget, MiB")
		maxBodyMB   = flag.Int64("max-body-mb", 64, "largest accepted trace upload, MiB")
		resultsDir  = flag.String("results-dir", "", "persist every finished job's artifacts under DIR/<job-id>/")
		replayScale = flag.Int("replay-scale", 100, "app filler divisor for confirm replays")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "shutdown budget for in-flight jobs")
		selftest    = flag.Bool("selftest", false, "run the in-process end-to-end smoke test and exit")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("cafa-serve"))
		return
	}
	obs.Enable()
	cfg := service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		JobTimeout:   *jobTimeout,
		CacheBytes:   *cacheMB << 20,
		MaxBodyBytes: *maxBodyMB << 20,
		ResultsDir:   *resultsDir,
		ReplayScale:  *replayScale,
	}
	if *selftest {
		if err := runSelftest(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "cafa-serve: selftest: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("selftest ok")
		return
	}
	if err := serve(*addr, cfg, *drainGrace); err != nil {
		fmt.Fprintf(os.Stderr, "cafa-serve: %v\n", err)
		os.Exit(1)
	}
}

// serve runs the service until SIGINT/SIGTERM, then drains: the HTTP
// listener closes first (no new submissions), the job pool second
// (queued and running work finishes and persists).
func serve(addr string, cfg service.Config, grace time.Duration) error {
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc}
	log.Printf("cafa-serve: listening on %s (config %s)", ln.Addr(), svc.Fingerprint())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("cafa-serve: draining (up to %v)", grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		_ = httpSrv.Close()
	}
	if err := svc.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("cafa-serve: drained, bye")
	return nil
}
