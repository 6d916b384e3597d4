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
	"os"
	"os/signal"
	"syscall"

	"nbhd/internal/core"
	"nbhd/internal/fleet"
	"nbhd/internal/serve"
	"nbhd/internal/wire"
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

	fmt.Printf("fleet of %d replicas %v routing on %s\n", sup.Ring().Len(), sup.Ring().Members(), *addr)
	// SIGTERM: the router stops advertising health first, then in-flight
	// forwards finish, then the supervisor drains every replica — the
	// same outside-in order each gateway uses internally.
	if err := wire.Serve(ctx, *addr, router.Handler(), func() {
		fmt.Println("draining fleet...")
		router.Drain()
	}); err != nil {
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
	return fleet.Config{Replicas: replicas, Gateway: serve.Config{Backends: serve.DefaultBackends()}}, nil
}
