// Command llmserve runs the simulated multimodal-LLM API service hosting
// the paper's four models behind a chat-completions-style HTTP endpoint.
//
// Usage:
//
//	llmserve -addr :8080
//	llmserve -addr :8080 -fail-429 0.05 -fail-500 0.01   # chaos mode
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
	"syscall"

	"nbhd/internal/llmserve"
	"nbhd/internal/vlm"
	"nbhd/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "llmserve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	budget := flag.Int("budget", 0, "total request budget (0 = unlimited)")
	fail429 := flag.Float64("fail-429", 0, "probability of injected 429 responses")
	fail500 := flag.Float64("fail-500", 0, "probability of injected 500 responses")
	failSeed := flag.Int64("fail-seed", 1, "failure injection seed")
	flag.Parse()

	srv, err := llmserve.NewBuiltin(llmserve.Config{
		RequestBudget: *budget,
		Failures:      llmserve.FailureConfig{Prob429: *fail429, Prob500: *fail500, Seed: *failSeed},
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("serving models %v on %s\n", vlm.AllModels(), *addr)
	return wire.Serve(ctx, *addr, srv.Handler(), nil)
}
