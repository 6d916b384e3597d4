// Package fleet is the multi-replica serving tier above internal/serve:
// a consistent-hash router that shards requests across N gateway
// replicas, and a supervisor that spawns, health-polls, drains, and
// re-admits those replicas from one JSON fleet config.
//
// Sharding is by serve.ShardKey — the exact key scheme the gateway's
// own result cache uses — so shard affinity equals cache affinity:
// every replica's coalescer and LRU stay hot on their own key range,
// and aggregate throughput scales with the replica count instead of
// re-deriving one process's working set N times. The router forwards
// /v1/classify, /v1/nearest, and /v1/neighborhood to the owning
// replica, fails over along the ring's successor order when a replica
// is unreachable, and propagates a replica's 503 + Retry-After sheds
// unchanged (shedding is backpressure, not failure; retrying it
// elsewhere would defeat admission control). Replica responses are
// bit-identical whichever member serves them — every replica runs the
// same deterministic backends over the same corpus — so failover is
// invisible to clients beyond the X-Fleet-* tracing headers.
//
// The supervisor owns the drain lifecycle, extending the single-process
// guarantee of internal/serve fleet-wide: a draining replica leaves the
// ring before it receives SIGTERM (or its in-process Drain), so no new
// traffic routes to it while its admitted requests finish; a replica
// that fails health polls is removed and re-admitted when it recovers.
package fleet

import (
	"bytes"
	"fmt"

	"nbhd/internal/serve"
	"nbhd/internal/wire"
)

// Config is the fleet's JSON-loadable configuration: one gateway config
// stamped out N times behind the router. Zero values take production
// defaults, mirroring serve.Config.
type Config struct {
	// Replicas is how many gateway replicas the supervisor runs.
	// Zero defaults to 2.
	Replicas int `json:"replicas,omitempty"`
	// Gateway is the per-replica gateway configuration; every replica
	// serves the same backends so any member can serve any key.
	Gateway serve.Config `json:"gateway"`
	// VirtualNodes is each replica's point count on the hash ring.
	// Zero defaults to 256.
	VirtualNodes int `json:"virtual_nodes,omitempty"`
	// HealthPollMS is the supervisor's /healthz poll interval in
	// milliseconds. Zero defaults to 250.
	HealthPollMS int `json:"health_poll_ms,omitempty"`
	// FailAfter is how many consecutive failed polls remove a replica
	// from the ring. Zero defaults to 2 (one blip is forgiven; the
	// router's per-request failover covers the gap).
	FailAfter int `json:"fail_after,omitempty"`
	// FailoverRetries is how many ring successors the router tries
	// after the owner fails. Zero defaults to 2; negative disables
	// failover (owner or bust — what the ring tests use).
	FailoverRetries int `json:"failover_retries,omitempty"`
	// SpillFactor enables consistent hashing with bounded loads: when
	// the owner's router-side in-flight count exceeds SpillFactor times
	// the fleet-wide average, the request is served by the next ring
	// successor under its bound instead. Affinity is untouched at or
	// below fair load — spilling starts only where a hot shard would
	// otherwise cap fleet throughput at its own ceiling. Values must
	// exceed 1 (1.25 is the classic choice); zero or less disables
	// spilling (strict affinity, the default).
	SpillFactor float64 `json:"spill_factor,omitempty"`
	// RetryAfterSeconds is advertised on router-origin 503s (no healthy
	// replica, every candidate unreachable). Zero defaults to 1;
	// negative omits the header. Replica-origin 503s pass through with
	// whatever Retry-After the replica set.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// StartTimeoutMS bounds how long Start waits for every replica's
	// first healthy poll. Zero defaults to 120000 (supervised backends
	// may train at boot).
	StartTimeoutMS int `json:"start_timeout_ms,omitempty"`
	// Exec, when set, runs each replica as a subprocess: an argv whose
	// tokens may contain the placeholders {id}, {addr}, and {port}
	// (e.g. ["./nbhdserve", "-addr", "{addr}", "-config", "gw.json"]).
	// Empty means the caller supplies in-process replicas.
	Exec []string `json:"exec,omitempty"`
	// BasePort is the first listen port for exec replicas (replica i
	// gets BasePort+i on 127.0.0.1). Zero defaults to 9100.
	BasePort int `json:"base_port,omitempty"`
}

// ParseConfig decodes a JSON fleet config under the strict wire rule
// (no unknown fields, no trailing data), matching serve.ParseConfig.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	if err := wire.DecodeStrict(bytes.NewReader(data), &cfg); err != nil {
		return Config{}, fmt.Errorf("fleet: parse config: %w", err)
	}
	return cfg, nil
}

func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.VirtualNodes == 0 {
		c.VirtualNodes = defaultVirtualNodes
	}
	if c.HealthPollMS == 0 {
		c.HealthPollMS = 250
	}
	if c.FailAfter == 0 {
		c.FailAfter = 2
	}
	if c.FailoverRetries == 0 {
		c.FailoverRetries = 2
	}
	if c.RetryAfterSeconds == 0 {
		c.RetryAfterSeconds = 1
	}
	if c.StartTimeoutMS == 0 {
		c.StartTimeoutMS = 120000
	}
	if c.BasePort == 0 {
		c.BasePort = 9100
	}
	return c
}

// QuantizedRoutes derives each configured route's numeric path from the
// gateway's backend specs — the router's side of the shard key's
// quantized bit. Injected (non-spec) routes can be overlaid through
// RouterOptions.
func (c Config) QuantizedRoutes() map[string]bool {
	out := make(map[string]bool, len(c.Gateway.Backends))
	for name, spec := range c.Gateway.Backends {
		out[name] = spec.Quantized
	}
	return out
}
