// Command nbhdserve runs the online classification gateway: the backend
// registry behind a dynamic-batching HTTP inference service over the
// study corpus, with admission control, an LRU result cache, spatial
// queries (GET /v1/nearest, POST /v1/neighborhood), health and metrics
// endpoints, and graceful drain on SIGTERM.
//
// Usage:
//
//	nbhdserve -addr :8090                      # four simulated LLMs + committee
//	nbhdserve -addr :8090 -cnn-epochs 20       # also train and mount the CNN baseline
//	nbhdserve -addr :8090 -store-dir corpus/   # persistent frame store: restarts re-render nothing
//	nbhdserve -config gateway.json             # routes from a serve.Config JSON file
//
// Throughput and latency numbers for the gateway come from the
// serve-cnn-miss and serve-zipf-upload workloads of nbhdbench.
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

	"nbhd/internal/backend"
	"nbhd/internal/core"
	"nbhd/internal/serve"
	"nbhd/internal/vlm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nbhdserve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8090", "listen address")
	configPath := flag.String("config", "", "serve.Config JSON file (overrides the builtin route set)")
	coords := flag.Int("coords", 300, "dataset coordinates (x4 headings)")
	seed := flag.Int64("seed", 0, "dataset seed")
	storeDir := flag.String("store-dir", "", "persistent frame store directory: renders persist across runs and warm starts serve from disk with zero re-renders")
	cnnEpochs := flag.Int("cnn-epochs", 0, "train and mount the cnn backend for this many epochs (0 = skip)")
	batchDelayMS := flag.Int("batch-delay-ms", 0, "max-latency batch flush timer (0 = default 3ms, negative = no coalescing)")
	maxQueue := flag.Int("max-queue", 0, "per-backend admission queue bound (0 = default 256)")
	cacheSize := flag.Int("cache-size", 0, "LRU result cache entries (0 = default 1024, negative = disabled)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, err := gatewayConfig(*configPath, *cnnEpochs)
	if err != nil {
		return err
	}
	// Flag overrides apply on top of whichever config source won.
	if *batchDelayMS != 0 {
		cfg.BatchDelayMS = *batchDelayMS
	}
	if *maxQueue != 0 {
		cfg.MaxQueue = *maxQueue
	}
	if *cacheSize != 0 {
		cfg.CacheSize = *cacheSize
	}

	fmt.Printf("assembling %d-coordinate corpus (seed %d)...\n", *coords, *seed)
	pipe, err := core.NewPipeline(core.Config{Coordinates: *coords, Seed: *seed, StoreDir: *storeDir})
	if err != nil {
		return err
	}
	defer func() { _ = pipe.Close() }()
	if *storeDir != "" {
		fmt.Printf("frame store %s: %d frames on disk\n", *storeDir, pipe.FrameStore().Len())
	}
	srv, err := serve.New(ctx, cfg, serve.Options{Env: pipe.BackendEnv(), Frames: pipe.RenderCache()})
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// SIGTERM/SIGINT: flip healthz to draining, then let every admitted
	// request finish before the listener closes and the pool is
	// released — drained requests never see a dropped connection.
	go func() {
		<-ctx.Done()
		fmt.Println("draining...")
		srv.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	fmt.Printf("serving backends %v on %s\n", srv.Routes(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	fmt.Println("drained")
	return srv.Close()
}

// gatewayConfig resolves the route set: a config file when given,
// otherwise the four simulated models plus their top-three committee,
// plus the trained CNN baseline when requested.
func gatewayConfig(path string, cnnEpochs int) (serve.Config, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return serve.Config{}, err
		}
		return serve.ParseConfig(data)
	}
	cfg := serve.Config{Backends: make(map[string]backend.Spec)}
	for _, id := range vlm.AllModels() {
		cfg.Backends[string(id)] = backend.Spec{Kind: "vlm", Model: string(id)}
	}
	cfg.Backends["committee"] = backend.Spec{Kind: "committee", Models: []string{
		string(vlm.Gemini15Pro), string(vlm.Claude37), string(vlm.Grok2),
	}}
	if cnnEpochs > 0 {
		cfg.Backends["cnn"] = backend.Spec{Kind: "cnn", Epochs: cnnEpochs}
	}
	return cfg, nil
}
