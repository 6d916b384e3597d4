package fleet

import (
	"strings"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/serve"
)

func TestParseConfigRejectsUnknownFields(t *testing.T) {
	_, err := ParseConfig([]byte(`{"replicas": 2, "repilcas": 4}`))
	if err == nil || !strings.Contains(err.Error(), "repilcas") {
		t.Fatalf("unknown field accepted, err = %v", err)
	}
	for _, trailing := range []string{` trailing`, `}`, `]`, `{}`, `x`} {
		if _, err := ParseConfig([]byte(`{"replicas": 2}` + trailing)); err == nil {
			t.Fatalf("trailing data %q accepted", trailing)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{}`))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	d := cfg.withDefaults()
	if d.Replicas != 2 || d.VirtualNodes != defaultVirtualNodes ||
		d.HealthPollMS != 250 || d.FailAfter != 2 || d.FailoverRetries != 2 ||
		d.RetryAfterSeconds != 1 || d.StartTimeoutMS != 120000 || d.BasePort != 9100 {
		t.Fatalf("defaults = %+v", d)
	}
	// Spill stays off unless asked for — strict affinity is the default
	// contract.
	if d.SpillFactor != 0 {
		t.Fatalf("SpillFactor defaulted on: %v", d.SpillFactor)
	}
	// Explicit values survive.
	e := Config{Replicas: 4, VirtualNodes: 64, FailoverRetries: -1, SpillFactor: 1.25}.withDefaults()
	if e.Replicas != 4 || e.VirtualNodes != 64 || e.FailoverRetries != -1 || e.SpillFactor != 1.25 {
		t.Fatalf("explicit values overwritten: %+v", e)
	}
}

// TestQuantizedRoutes: the shard key's numeric-path bit derives from
// the gateway's backend specs, so an int8 route and its f32 twin can
// never alias a cache entry across the fleet.
func TestQuantizedRoutes(t *testing.T) {
	cfg := Config{Gateway: serve.Config{Backends: map[string]backend.Spec{
		"cnn":    {Kind: "cnn"},
		"cnn-q8": {Kind: "cnn", Quantized: true},
	}}}
	q := cfg.QuantizedRoutes()
	if q["cnn"] || !q["cnn-q8"] {
		t.Fatalf("QuantizedRoutes = %v", q)
	}
}
