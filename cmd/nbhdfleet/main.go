// Command nbhdfleet runs the multi-replica serving tier: a supervisor
// that spawns N classification gateways from one fleet config, and a
// consistent-hash router in front of them that forwards /v1/classify,
// /v1/nearest, and /v1/neighborhood to the replica owning each
// request's shard key, failing over along the ring when a replica is
// down and propagating 503 sheds unchanged.
//
// Usage:
//
//	nbhdfleet -addr :8095 -replicas 4            # 4 in-process gateway replicas
//	nbhdfleet -config fleet.json                 # everything from a fleet.Config JSON
//
// With cfg.Exec set in the config file the supervisor runs each replica
// as a subprocess (one nbhdserve per replica); otherwise replicas are
// in-process serve.Server instances sharing one rendered corpus.
//
// TestFleetKillUnderLoadDropsNo200s in internal/fleet pins the failover
// guarantee: a replica killed under load costs no request its 200 and
// changes no answer.
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
	"nbhd/internal/fleet"
	"nbhd/internal/serve"
	"nbhd/internal/vlm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nbhdfleet:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8095", "router listen address")
	configPath := flag.String("config", "", "fleet.Config JSON file")
	replicas := flag.Int("replicas", 2, "replica count (config file wins when given)")
	coords := flag.Int("coords", 64, "dataset coordinates (x4 headings)")
	seed := flag.Int64("seed", 0, "dataset seed")
	storeDir := flag.String("store-dir", "", "persistent frame store directory shared by in-process replicas")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, err := fleetConfig(*configPath, *replicas)
	if err != nil {
		return err
	}

	var spawn fleet.SpawnFunc
	if len(cfg.Exec) > 0 {
		spawn = fleet.ExecSpawner(cfg)
	} else {
		fmt.Printf("assembling %d-coordinate corpus (seed %d)...\n", *coords, *seed)
		pipe, err := core.NewPipeline(core.Config{Coordinates: *coords, Seed: *seed, StoreDir: *storeDir})
		if err != nil {
			return err
		}
		defer func() { _ = pipe.Close() }()
		// Every in-process replica shares the rendered corpus and the
		// backend environment; each opens its own backend pool so a
		// replica's load never queues behind a sibling's.
		spawn = func(ctx context.Context, idx int, id string) (fleet.Replica, error) {
			srv, err := serve.New(ctx, cfg.Gateway, serve.Options{Env: pipe.BackendEnv(), Frames: pipe.RenderCache()})
			if err != nil {
				return nil, err
			}
			return fleet.NewLocalReplica(id, srv)
		}
	}

	sup := fleet.NewSupervisor(cfg, spawn)
	fmt.Printf("starting %d replicas...\n", cfg.Replicas)
	if err := sup.Start(ctx); err != nil {
		return err
	}
	defer func() { _ = sup.Close() }()
	router := sup.Router(fleet.RouterOptions{})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           router.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// SIGTERM: the router stops advertising health first, then in-flight
	// forwards finish, then the supervisor drains every replica — the
	// same outside-in order each gateway uses internally.
	go func() {
		<-ctx.Done()
		fmt.Println("draining fleet...")
		router.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	fmt.Printf("fleet of %d replicas %v routing on %s\n", sup.Ring().Len(), sup.Ring().Members(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	fmt.Println("drained")
	return sup.Close()
}

// fleetConfig resolves the fleet configuration: a file when given,
// otherwise the default gateway route set (the four simulated models
// plus their committee) stamped across -replicas members.
func fleetConfig(path string, replicas int) (fleet.Config, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return fleet.Config{}, err
		}
		return fleet.ParseConfig(data)
	}
	gw := serve.Config{Backends: make(map[string]backend.Spec)}
	for _, id := range vlm.AllModels() {
		gw.Backends[string(id)] = backend.Spec{Kind: "vlm", Model: string(id)}
	}
	gw.Backends["committee"] = backend.Spec{Kind: "committee", Models: []string{
		string(vlm.Gemini15Pro), string(vlm.Claude37), string(vlm.Grok2),
	}}
	return fleet.Config{Replicas: replicas, Gateway: gw}, nil
}
