// Command gsvserve hosts the simulated Street View image API over a
// generated study corpus, so collection tooling can be developed against
// it exactly as against the real service.
//
// Usage:
//
//	gsvserve -addr :8081 -coords 300 -keys demo-key -quota 5000
//
// SIGTERM or SIGINT stops the listener and lets in-flight requests
// finish before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"nbhd/internal/dataset"
	"nbhd/internal/gsv"
	"nbhd/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gsvserve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8081", "listen address")
	coords := flag.Int("coords", dataset.StudyCoordinates, "sampled coordinates in the served corpus")
	seed := flag.Int64("seed", 1, "corpus seed")
	keys := flag.String("keys", "", "comma-separated accepted API keys (empty = open)")
	quota := flag.Int("quota", 0, "requests per key (0 = unlimited)")
	maxSize := flag.Int("max-size", gsv.MaxImageSize, "maximum render size")
	flag.Parse()

	study, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: *coords, Seed: *seed})
	if err != nil {
		return err
	}
	var keyList []string
	if *keys != "" {
		keyList = strings.Split(*keys, ",")
	}
	srv, err := gsv.NewServer(study, gsv.ServerConfig{
		APIKeys:       keyList,
		QuotaPerKey:   *quota,
		MaxRenderSize: *maxSize,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("serving %d frames (%s + %s) on %s\n", study.Len(), study.Rural.Name, study.Urban.Name, *addr)
	return wire.Serve(ctx, *addr, srv.Handler(), nil)
}
