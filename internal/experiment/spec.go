// Package experiment is the system's declarative public face: an
// experiment is a serializable Spec — a dataset configuration, named
// backend specs, evaluation sweeps, and analysis steps — handed to a
// Runner that executes it on the concurrent evaluation engine, streams
// typed progress Events, and leaves a diffable run-artifact trail. The
// paper's experiments (Tables III-VI, Figs. 4-6, the neighborhood
// analysis) are built-in specs; new scenarios are new JSON documents,
// not new methods.
package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"

	"nbhd/internal/backend"
	"nbhd/internal/core"
	"nbhd/internal/dataset"
	"nbhd/internal/prompt"
	"nbhd/internal/vlm"
	"nbhd/internal/wire"
	"nbhd/internal/world"
)

// Spec declares one experiment end to end. Specs are plain data: they
// round-trip through JSON, diff cleanly in review, and contain
// everything a Runner needs to reproduce the run bit for bit.
type Spec struct {
	// Name identifies the experiment in events, artifacts, and errors.
	Name string `json:"name"`
	// Description is a human note carried into the run manifest.
	Description string `json:"description,omitempty"`
	// Dataset configures the corpus every sweep and analysis runs over.
	Dataset DatasetSpec `json:"dataset"`
	// Backends maps backend names to their declarative specs. Sweeps
	// and analyses reference backends by these names.
	Backends map[string]backend.Spec `json:"backends"`
	// Sweeps are the evaluation passes, run in order.
	Sweeps []SweepSpec `json:"sweeps,omitempty"`
	// Analyses are the downstream neighborhood-analysis steps, run in
	// order after the sweeps.
	Analyses []AnalysisSpec `json:"analyses,omitempty"`
	// Workers is the evaluation worker budget; zero means GOMAXPROCS. A
	// run's walk runs one worker per distinct backend it asks instead
	// when that is more.
	Workers int `json:"workers,omitempty"`
}

// DatasetSpec configures the synthetic study corpus.
type DatasetSpec struct {
	// Coordinates is the number of sampled coordinates (x4 headings);
	// zero defaults to the paper's 300.
	Coordinates int `json:"coordinates,omitempty"`
	// Seed drives all generation; the same seed reproduces the same
	// corpus, renders, and model answers.
	Seed int64 `json:"seed"`
	// DetectorInputSize is the supervised baselines' render resolution;
	// zero defaults to 64.
	DetectorInputSize int `json:"detector_input_size,omitempty"`
	// LLMRenderSize is the resolution of frames sent to LLM backends;
	// zero defaults to 96.
	LLMRenderSize int `json:"llm_render_size,omitempty"`
	// StoreDir, when set, backs the run's renders with a persistent
	// frame store at that path: frames rendered by any earlier run with
	// the same corpus parameters are memory-mapped instead of
	// re-rendered, and this run's renders persist for the next (see
	// internal/store).
	StoreDir string `json:"store_dir,omitempty"`
	// Morphology names the procedural world family the corpus counties
	// come from (world.Names); empty keeps the legacy study world.
	Morphology string `json:"morphology,omitempty"`
	// Condition names the corpus-level capture condition every render is
	// degraded under (dataset.Conditions); empty or "clean" renders clean
	// frames. Sweeps can override per sweep via their options.
	Condition string `json:"condition,omitempty"`
}

// coreConfig lowers the dataset spec to the pipeline's configuration.
func (d DatasetSpec) coreConfig() core.Config {
	return core.Config{
		Coordinates:       d.Coordinates,
		Seed:              d.Seed,
		DetectorInputSize: d.DetectorInputSize,
		LLMRenderSize:     d.LLMRenderSize,
		StoreDir:          d.StoreDir,
		Morphology:        d.Morphology,
		Condition:         d.Condition,
	}
}

// sweepOptions parses a sweep's options for a run over this dataset,
// with the capture condition resolved against the dataset's (see
// dataset.ResolveCondition): options that select the same frames and
// requests compare equal however the condition is spelled.
func (d DatasetSpec) sweepOptions(o OptionsSpec) (core.LLMOptions, error) {
	opts, err := o.llmOptions()
	if err != nil {
		return core.LLMOptions{}, err
	}
	opts.Condition = dataset.ResolveCondition(d.Condition, opts.Condition)
	return opts, nil
}

// SweepSpec is one evaluation pass over the corpus. A regular sweep
// evaluates every named backend concurrently under one set of options.
// A vote sweep (VoteTopOf set) instead majority-votes the top VoteTopK
// backends of an earlier sweep, ranked by average accuracy — the
// paper's "top three LLMs" step as data.
type SweepSpec struct {
	// Name identifies the sweep within the experiment.
	Name string `json:"name"`
	// Backends are the backend names evaluated by a regular sweep.
	Backends []string `json:"backends,omitempty"`
	// Options tune every request in the sweep.
	Options OptionsSpec `json:"options,omitzero"`
	// VoteTopOf names an earlier sweep whose top backends (by average
	// accuracy, ties broken by name) form this sweep's majority-voting
	// committee.
	VoteTopOf string `json:"vote_top_of,omitempty"`
	// VoteTopK is the committee size for a vote sweep; zero defaults
	// to the paper's 3.
	VoteTopK int `json:"vote_top_k,omitempty"`
}

// OptionsSpec is the serializable form of the sweep options.
type OptionsSpec struct {
	// Language of the prompts ("English", "Spanish", "Chinese",
	// "Bengali"); empty defaults to English.
	Language string `json:"language,omitempty"`
	// Mode is the prompting strategy ("parallel" or "sequential");
	// empty defaults to parallel.
	Mode string `json:"mode,omitempty"`
	// Temperature and TopP forward to the models (zero = provider
	// defaults); Validate takes the models' ranges, [0,2] and (0,1].
	Temperature float64 `json:"temperature,omitempty"`
	TopP        float64 `json:"top_p,omitempty"`
	// FrameLimit caps the number of frames evaluated (0 = all).
	FrameLimit int `json:"frame_limit,omitempty"`
	// Condition overrides the capture condition frames are evaluated
	// under (dataset.Conditions): empty inherits the dataset's condition,
	// "clean" forces clean frames, anything else degrades the cached
	// clean renders — the train-clean/test-degraded knob.
	Condition string `json:"condition,omitempty"`
}

// llmOptions parses the spec options into the engine's sweep options.
// An unset language or mode resolves to the default the models apply
// (English, parallel), so options that send the same requests compare
// equal, and name the same cell, however they are spelled.
func (o OptionsSpec) llmOptions() (core.LLMOptions, error) {
	opts := core.LLMOptions{
		Language:    prompt.English,
		Mode:        prompt.Parallel,
		Temperature: o.Temperature,
		TopP:        o.TopP,
		FrameLimit:  o.FrameLimit,
		Condition:   o.Condition,
	}
	if !dataset.ValidCondition(o.Condition) {
		return core.LLMOptions{}, fmt.Errorf("unknown capture condition %q (have %v)", o.Condition, dataset.Conditions())
	}
	if err := vlm.CheckSampling(o.Temperature, o.TopP); err != nil {
		return core.LLMOptions{}, err
	}
	if o.Language != "" {
		lang, err := prompt.ParseLanguage(o.Language)
		if err != nil {
			return core.LLMOptions{}, err
		}
		opts.Language = lang
	}
	if o.Mode != "" {
		mode, err := prompt.ParseMode(o.Mode)
		if err != nil {
			return core.LLMOptions{}, err
		}
		opts.Mode = mode
	}
	return opts, nil
}

// AnalysisSpec is one neighborhood-analysis step: sweep a backend over
// the corpus, fuse headings per coordinate, and aggregate to tracts.
type AnalysisSpec struct {
	// Name identifies the step within the experiment.
	Name string `json:"name"`
	// Backend names the classifier backend the analysis sweeps.
	Backend string `json:"backend"`
	// TractFeet is the tract grid cell size in feet; zero defaults to
	// 5000.
	TractFeet float64 `json:"tract_feet,omitempty"`
}

// Validate checks the spec's internal consistency: names present,
// sweeps and analyses reference declared backends, vote sweeps
// reference earlier sweeps, and options parse.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("experiment: spec needs a name")
	}
	if len(s.Sweeps) == 0 && len(s.Analyses) == 0 {
		return fmt.Errorf("experiment: spec %q has no sweeps or analyses", s.Name)
	}
	if s.Dataset.Morphology != "" && !world.Valid(s.Dataset.Morphology) {
		return fmt.Errorf("experiment: spec %q dataset has unknown morphology %q (have %v)", s.Name, s.Dataset.Morphology, world.Names())
	}
	if !dataset.ValidCondition(s.Dataset.Condition) {
		return fmt.Errorf("experiment: spec %q dataset has unknown capture condition %q (have %v)", s.Name, s.Dataset.Condition, dataset.Conditions())
	}
	registered := backend.Kinds()
	known := make(map[string]bool, len(registered))
	for _, k := range registered {
		known[k] = true
	}
	for name, b := range s.Backends {
		if !known[b.Kind] {
			return fmt.Errorf("experiment: backend %q has unknown kind %q (registered: %v)", name, b.Kind, registered)
		}
	}
	seenSweeps := make(map[string]bool, len(s.Sweeps))
	voteSweeps := make(map[string]bool, len(s.Sweeps))
	for i := range s.Sweeps {
		sw := &s.Sweeps[i]
		if sw.Name == "" {
			return fmt.Errorf("experiment: sweep %d has no name", i)
		}
		if seenSweeps[sw.Name] {
			return fmt.Errorf("experiment: duplicate sweep name %q", sw.Name)
		}
		if _, err := sw.Options.llmOptions(); err != nil {
			return fmt.Errorf("experiment: sweep %q: %w", sw.Name, err)
		}
		if sw.VoteTopOf != "" {
			if len(sw.Backends) > 0 {
				return fmt.Errorf("experiment: vote sweep %q cannot also list backends", sw.Name)
			}
			if !seenSweeps[sw.VoteTopOf] {
				return fmt.Errorf("experiment: vote sweep %q references unknown or later sweep %q", sw.Name, sw.VoteTopOf)
			}
			// A vote sweep's single report is named after the sweep, not
			// a declared backend, so voting over a vote sweep has no
			// backend specs to reopen — reject it up front.
			if voteSweeps[sw.VoteTopOf] {
				return fmt.Errorf("experiment: vote sweep %q cannot vote over vote sweep %q (members must come from a regular sweep)", sw.Name, sw.VoteTopOf)
			}
			if sw.VoteTopK < 0 {
				return fmt.Errorf("experiment: vote sweep %q has negative vote_top_k", sw.Name)
			}
			voteSweeps[sw.Name] = true
		} else {
			if len(sw.Backends) == 0 {
				return fmt.Errorf("experiment: sweep %q evaluates no backends", sw.Name)
			}
			listed := make(map[string]bool, len(sw.Backends))
			for _, name := range sw.Backends {
				if _, ok := s.Backends[name]; !ok {
					return fmt.Errorf("experiment: sweep %q references unknown backend %q", sw.Name, name)
				}
				if listed[name] {
					return fmt.Errorf("experiment: sweep %q lists backend %q twice", sw.Name, name)
				}
				listed[name] = true
			}
		}
		seenSweeps[sw.Name] = true
	}
	seenAnalyses := make(map[string]bool, len(s.Analyses))
	for i := range s.Analyses {
		a := &s.Analyses[i]
		if a.Name == "" {
			return fmt.Errorf("experiment: analysis %d has no name", i)
		}
		if seenAnalyses[a.Name] {
			return fmt.Errorf("experiment: duplicate analysis name %q", a.Name)
		}
		seenAnalyses[a.Name] = true
		if _, ok := s.Backends[a.Backend]; !ok {
			return fmt.Errorf("experiment: analysis %q references unknown backend %q", a.Name, a.Backend)
		}
		if a.TractFeet < 0 {
			return fmt.Errorf("experiment: analysis %q has negative tract_feet", a.Name)
		}
	}
	return nil
}

// ParseSpec decodes and validates a JSON spec under the strict wire
// rule: unknown fields and trailing data are rejected so typos fail
// loudly instead of silently changing the run.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := wire.DecodeStrict(bytes.NewReader(data), &s); err != nil {
		return Spec{}, fmt.Errorf("experiment: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// MarshalIndentSpec renders a spec as stable, human-diffable JSON.
func MarshalIndentSpec(s Spec) ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiment: marshal spec: %w", err)
	}
	return append(out, '\n'), nil
}
