// Command nbhdlab runs the continuous-evaluation lab daemon: a
// flock-owned workspace of experiment runs, a job scheduler over the
// experiment API with cell-granular checkpointing (a killed daemon
// resumes mid-sweep and reproduces byte-identical artifacts), baseline
// diffing of every finished run, and an HTTP control plane.
//
// Usage:
//
//	nbhdlab -workspace lab/                     # smoke job, manual enqueue
//	nbhdlab -workspace lab/ -config lab.json    # jobs from a lab.Config file
//	nbhdlab -workspace lab/ -interval 3600      # re-run the smoke job hourly
//
// The daemon serves GET /queuez, GET /runz/{id}, POST /v1/enqueue,
// POST /v1/promote, POST /v1/cancel, /healthz and /metricsz (see
// docs/LAB.md). SIGTERM drains: the in-flight run checkpoints to its
// journal, /healthz flips 503, admitted requests finish, and the next
// daemon resumes the interrupted run.
//
// TestRunLifecycleAndBaseline (a repeat run diffs byte-identical
// against the promoted baseline) and TestKillResumeByteIdentical (a run
// killed between two journal appends resumes and still lands
// byte-identical) in internal/lab pin the daemon's two core guarantees.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nbhd/internal/lab"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nbhdlab:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8095", "listen address")
	workspace := flag.String("workspace", "", "lab workspace directory (required)")
	configPath := flag.String("config", "", "lab.Config JSON file (default: one manual job running the builtin smoke spec)")
	coords := flag.Int("coords", 12, "builtin-spec dataset coordinates (x4 headings)")
	seed := flag.Int64("seed", 0, "builtin-spec dataset seed")
	interval := flag.Int("interval", 0, "default job interval in seconds (0 = manual enqueue only)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, err := labConfig(*configPath, *coords, *seed, *interval)
	if err != nil {
		return err
	}
	if *workspace == "" {
		return fmt.Errorf("-workspace is required")
	}

	l, err := lab.Open(*workspace, cfg, lab.Options{Logf: logf})
	if err != nil {
		return err
	}
	defer func() { _ = l.Close() }()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           l.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// SIGTERM/SIGINT: checkpoint the in-flight run (Drain cancels it;
	// its journal already holds every completed cell), flip healthz,
	// and let admitted control-plane requests finish before the
	// listener closes — drained requests never see a dropped
	// connection.
	go func() {
		<-ctx.Done()
		logf("draining...")
		l.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	logf("lab workspace %s serving on %s (%d jobs)", *workspace, *addr, len(cfg.Jobs))
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	logf("drained")
	return l.Close()
}

func logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// labConfig resolves the job set: a config file when given, otherwise
// one job running the builtin smoke spec.
func labConfig(path string, coords int, seed int64, interval int) (lab.Config, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return lab.Config{}, err
		}
		return lab.ParseConfig(data)
	}
	return lab.Config{
		Builtin: lab.BuiltinSettings{Coordinates: coords, Seed: seed},
		Jobs:    []lab.JobConfig{{Name: "smoke", Spec: "smoke", IntervalSeconds: interval}},
	}, nil
}
