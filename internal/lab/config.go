package lab

import (
	"bytes"
	"fmt"
	"strings"

	"nbhd/internal/experiment"
	"nbhd/internal/wire"
)

// Baseline policies.
const (
	// BaselineAuto promotes automatically: a job's first completed run
	// becomes its baseline, and every later run that diffs clean
	// against the current baseline advances it. Drifted runs are held
	// for a manual POST /v1/promote.
	BaselineAuto = "auto"
	// BaselineManual never promotes on its own; only POST /v1/promote
	// moves the baseline.
	BaselineManual = "manual"
)

// Config is the lab's JSON-loadable configuration: the jobs to schedule
// plus shared settings for resolving built-in specs.
type Config struct {
	// Builtin parameterizes jobs whose spec is a built-in name
	// (experiment.BuiltinNames): corpus size, seed, optional remote
	// model server.
	Builtin experiment.BuiltinConfig `json:"builtin,omitzero"`
	// Jobs are the scheduled experiments.
	Jobs []JobConfig `json:"jobs,omitempty"`
}

// JobConfig is one scheduled experiment.
type JobConfig struct {
	// Name identifies the job in run IDs, artifact paths, and the HTTP
	// API. Lowercase letters, digits, '-' and '_' only.
	Name string `json:"name"`
	// Spec names what to run: a built-in spec name (no '.' or '/'), or
	// a path to a spec JSON file (resolved relative to the daemon's
	// working directory, re-read at every run start).
	Spec string `json:"spec"`
	// IntervalSeconds re-enqueues the job this often; the first run is
	// due at daemon start. Zero means manual only (POST /v1/enqueue).
	IntervalSeconds int `json:"interval_seconds,omitempty"`
	// Baseline is the promotion policy: BaselineAuto (the default) or
	// BaselineManual.
	Baseline string `json:"baseline,omitempty"`
	// Epsilon, when set, lets baseline diffs accept bounded metric
	// drift (see experiment.Epsilon). Nil demands byte identity.
	Epsilon *experiment.Epsilon `json:"epsilon,omitempty"`
	// Workers overrides the evaluation worker budget for this job's
	// runs.
	Workers int `json:"workers,omitempty"`
}

// ParseConfig decodes a JSON config under the strict wire rule (no
// unknown fields, no trailing data) so typos fail at boot, the
// serve.ParseConfig convention.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	if err := wire.DecodeStrict(bytes.NewReader(data), &cfg); err != nil {
		return Config{}, fmt.Errorf("lab: parse config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks job names, spec references, and policies.
func (c Config) Validate() error {
	seen := make(map[string]bool, len(c.Jobs))
	for i := range c.Jobs {
		j := &c.Jobs[i]
		if err := validateJobName(j.Name); err != nil {
			return err
		}
		if seen[j.Name] {
			return fmt.Errorf("lab: duplicate job %q", j.Name)
		}
		seen[j.Name] = true
		if j.Spec == "" {
			return fmt.Errorf("lab: job %q has no spec", j.Name)
		}
		if j.IntervalSeconds < 0 {
			return fmt.Errorf("lab: job %q has negative interval", j.Name)
		}
		switch j.Baseline {
		case "", BaselineAuto, BaselineManual:
		default:
			return fmt.Errorf("lab: job %q: unknown baseline policy %q (want %q or %q)",
				j.Name, j.Baseline, BaselineAuto, BaselineManual)
		}
	}
	return nil
}

// validateJobName keeps job names safe as path and run ID components.
func validateJobName(name string) error {
	if name == "" {
		return fmt.Errorf("lab: job with empty name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("lab: job name %q: only [a-z0-9-_] allowed", name)
		}
	}
	return nil
}

// specIsFile reports whether a job's spec reference is a file path
// rather than a built-in name.
func specIsFile(ref string) bool {
	return strings.ContainsAny(ref, "./\\")
}

// job returns the named job's config, or nil.
func (c *Config) job(name string) *JobConfig {
	for i := range c.Jobs {
		if c.Jobs[i].Name == name {
			return &c.Jobs[i]
		}
	}
	return nil
}
