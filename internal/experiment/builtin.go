package experiment

import (
	"fmt"
	"sort"
	"strconv"

	"nbhd/internal/backend"
	"nbhd/internal/dataset"
	"nbhd/internal/ensemble"
	"nbhd/internal/prompt"
	"nbhd/internal/vlm"
	"nbhd/internal/world"
)

// BuiltinConfig parameterizes the built-in paper specs. Its JSON form
// is the "builtin" section of a lab config.
type BuiltinConfig struct {
	// Coordinates is the corpus size (x4 headings); zero defaults to
	// the paper's 300.
	Coordinates int `json:"coordinates,omitempty"`
	// Seed drives all generation.
	Seed int64 `json:"seed,omitempty"`
	// BaseURL, when non-empty, makes every model backend a remote HTTP
	// spec against this llmserve-compatible server instead of the
	// in-process simulation. With the default lossless encoding the
	// reports are bit-identical either way.
	BaseURL string `json:"base_url,omitempty"`
	// APIKey is the bearer token for remote backends.
	APIKey string `json:"api_key,omitempty"`
	// TrainEpochs is the training budget for the supervised specs
	// (yolo, cnn); zero defaults to the paper's 20.
	TrainEpochs int `json:"train_epochs,omitempty"`
	// Quantized switches the supervised specs (yolo, cnn) to int8
	// inference after training (see docs/QUANTIZATION.md).
	Quantized bool `json:"quantized,omitempty"`
	// Morphology selects the procedural world family the corpus comes
	// from (world.Names); empty keeps the legacy study world. A
	// parameterized builtin name ("robustness:coastal") overrides it.
	Morphology string `json:"morphology,omitempty"`
	// Condition sets the corpus-level capture condition
	// (dataset.Conditions); empty renders clean frames.
	Condition string `json:"condition,omitempty"`
	// MatrixKinds restricts the robustness matrix's backend kinds to a
	// subset of RobustnessKinds (canonical order is kept regardless of
	// the order given here); empty sweeps all of them.
	MatrixKinds []string `json:"matrix_kinds,omitempty"`
	// MatrixConditions restricts the robustness matrix's capture
	// conditions; empty sweeps every registered condition, clean first.
	MatrixConditions []string `json:"matrix_conditions,omitempty"`
}

// modelSpec declares one model backend: in-process simulation, or
// remote HTTP when the config points at a server.
func (c BuiltinConfig) modelSpec(id vlm.ModelID) backend.Spec {
	if c.BaseURL != "" {
		return backend.Spec{Kind: "http", Model: string(id), BaseURL: c.BaseURL, APIKey: c.APIKey}
	}
	return backend.Spec{Kind: "vlm", Model: string(id)}
}

// modelBackends declares all four evaluated models, keyed by model ID.
func (c BuiltinConfig) modelBackends() map[string]backend.Spec {
	out := make(map[string]backend.Spec, len(vlm.AllModels()))
	for _, id := range vlm.AllModels() {
		out[string(id)] = c.modelSpec(id)
	}
	return out
}

// committeeSpec declares the paper's top-three committee: a voting
// composite over one model spec per member, in process or remote alike.
func (c BuiltinConfig) committeeSpec() backend.Spec {
	ids := ensemble.PaperCommittee()
	members := make([]backend.Spec, len(ids))
	for i, id := range ids {
		members[i] = c.modelSpec(id)
	}
	return backend.Spec{Kind: "voting", Name: "committee", Members: members}
}

// allModelNames returns the four model backend names in the paper's
// order.
func allModelNames() []string {
	out := make([]string, 0, len(vlm.AllModels()))
	for _, id := range vlm.AllModels() {
		out = append(out, string(id))
	}
	return out
}

// The built-in sweep-set builders, composed into named specs below.

func tablesSweeps() []SweepSpec {
	return []SweepSpec{{Name: "tables", Backends: allModelNames()}}
}

func fig4Sweeps() []SweepSpec {
	models := []string{string(vlm.Gemini15Pro), string(vlm.ChatGPT4oMini)}
	return []SweepSpec{
		{Name: "f4:parallel", Backends: models, Options: OptionsSpec{Mode: prompt.Parallel.String()}},
		{Name: "f4:sequential", Backends: models, Options: OptionsSpec{Mode: prompt.Sequential.String()}},
	}
}

func fig5Sweeps() []SweepSpec {
	return []SweepSpec{
		{Name: "f5:models", Backends: allModelNames()},
		{Name: "f5:voting", VoteTopOf: "f5:models", VoteTopK: 3},
	}
}

func fig6Sweeps() []SweepSpec {
	sweeps := make([]SweepSpec, 0, 4)
	for _, lang := range prompt.Languages() {
		sweeps = append(sweeps, SweepSpec{
			Name:     "f6:" + lang.String(),
			Backends: []string{string(vlm.Gemini15Pro)},
			Options:  OptionsSpec{Language: lang.String()},
		})
	}
	return sweeps
}

// ParamTemperatures and ParamTopPs are the §IV-C4 sampling sweeps.
var (
	ParamTemperatures = []float64{0.1, vlm.DefaultTemperature, 1.5}
	ParamTopPs        = []float64{0.5, 0.75, vlm.DefaultTopP}
)

// ParamSweepName names one §IV-C4 sweep ("params:temperature=0.1").
func ParamSweepName(param string, value float64) string {
	return "params:" + param + "=" + strconv.FormatFloat(value, 'g', -1, 64)
}

func paramsSweeps() []SweepSpec {
	gemini := []string{string(vlm.Gemini15Pro)}
	sweeps := make([]SweepSpec, 0, len(ParamTemperatures)+len(ParamTopPs))
	for _, temp := range ParamTemperatures {
		sweeps = append(sweeps, SweepSpec{
			Name:     ParamSweepName("temperature", temp),
			Backends: gemini,
			Options:  OptionsSpec{Temperature: temp},
		})
	}
	for _, topP := range ParamTopPs {
		sweeps = append(sweeps, SweepSpec{
			Name:     ParamSweepName("top_p", topP),
			Backends: gemini,
			Options:  OptionsSpec{TopP: topP},
		})
	}
	return sweeps
}

// RobustnessKinds lists the backend kinds the robustness matrix sweeps,
// in canonical order: every registered classifier family plus the int8
// variants of the supervised baselines.
func RobustnessKinds() []string {
	return []string{"vlm", "committee", "yolo", "cnn", "yolo-int8", "cnn-int8"}
}

// robustnessKindSpec declares the backend evaluated for one matrix kind.
func (c BuiltinConfig) robustnessKindSpec(kind string) (backend.Spec, bool) {
	switch kind {
	case "vlm":
		return c.modelSpec(vlm.Gemini15Pro), true
	case "committee":
		return c.committeeSpec(), true
	case "yolo":
		return backend.Spec{Kind: "yolo"}, true
	case "cnn":
		return backend.Spec{Kind: "cnn"}, true
	case "yolo-int8":
		return backend.Spec{Kind: "yolo", Quantized: true}, true
	case "cnn-int8":
		return backend.Spec{Kind: "cnn", Quantized: true}, true
	}
	return backend.Spec{}, false
}

// RobustnessSweepName names one matrix sweep ("cond:night"). The matrix
// driver strips the prefix back off when labeling cells.
func RobustnessSweepName(condition string) string { return "cond:" + condition }

// robustnessSpec builds the robustness matrix for one morphology: every
// selected backend kind swept under every selected capture condition,
// train-clean (the corpus itself stays clean) and test-degraded (each
// sweep overrides the evaluation condition).
func robustnessSpec(c BuiltinConfig) (Spec, error) {
	kinds := c.MatrixKinds
	if len(kinds) == 0 {
		kinds = RobustnessKinds()
	} else {
		allowed := make(map[string]bool, len(RobustnessKinds()))
		for _, k := range RobustnessKinds() {
			allowed[k] = true
		}
		picked := make(map[string]bool, len(kinds))
		for _, k := range kinds {
			if !allowed[k] {
				return Spec{}, fmt.Errorf("experiment: unknown robustness matrix kind %q (have %v)", k, RobustnessKinds())
			}
			picked[k] = true
		}
		// Canonical order regardless of how the caller listed them, so
		// the same selection always produces the same spec bytes.
		kinds = kinds[:0]
		for _, k := range RobustnessKinds() {
			if picked[k] {
				kinds = append(kinds, k)
			}
		}
	}
	conditions := c.MatrixConditions
	if len(conditions) == 0 {
		conditions = dataset.Conditions()
	} else {
		for _, cond := range conditions {
			if cond == "" || !dataset.ValidCondition(cond) {
				return Spec{}, fmt.Errorf("experiment: unknown robustness matrix condition %q (have %v)", cond, dataset.Conditions())
			}
		}
	}
	backends := make(map[string]backend.Spec, len(kinds))
	for _, k := range kinds {
		spec, _ := c.robustnessKindSpec(k)
		backends[k] = spec
	}
	sweeps := make([]SweepSpec, 0, len(conditions))
	for _, cond := range conditions {
		sweeps = append(sweeps, SweepSpec{
			Name:     RobustnessSweepName(cond),
			Backends: append([]string(nil), kinds...),
			Options:  OptionsSpec{Condition: cond},
		})
	}
	name := "robustness"
	desc := "Backend accuracy matrix across degraded capture conditions"
	if c.Morphology != "" {
		name += ":" + c.Morphology
		desc += " on the " + c.Morphology + " world"
	}
	return Spec{
		Name:        name,
		Description: desc,
		Dataset:     DatasetSpec{Morphology: c.Morphology},
		Backends:    backends,
		Sweeps:      sweeps,
	}, nil
}

// builtinBuilders maps experiment names to their spec builders.
var builtinBuilders = map[string]func(BuiltinConfig) (Spec, error){
	"tables": func(c BuiltinConfig) (Spec, error) {
		return Spec{
			Name:        "tables",
			Description: "Per-model confusion tables (Tables III-VI), parallel English prompts",
			Backends:    c.modelBackends(),
			Sweeps:      tablesSweeps(),
		}, nil
	},
	"f4": func(c BuiltinConfig) (Spec, error) {
		return Spec{
			Name:        "f4",
			Description: "Parallel vs sequential prompting (Fig. 4)",
			Backends:    c.modelBackends(),
			Sweeps:      fig4Sweeps(),
		}, nil
	},
	"f5": func(c BuiltinConfig) (Spec, error) {
		return Spec{
			Name:        "f5",
			Description: "Per-model accuracy and top-three majority voting (Fig. 5)",
			Backends:    c.modelBackends(),
			Sweeps:      fig5Sweeps(),
		}, nil
	},
	"f6": func(c BuiltinConfig) (Spec, error) {
		return Spec{
			Name:        "f6",
			Description: "Prompt-language sweep (Fig. 6)",
			Backends:    c.modelBackends(),
			Sweeps:      fig6Sweeps(),
		}, nil
	},
	"params": func(c BuiltinConfig) (Spec, error) {
		return Spec{
			Name:        "params",
			Description: "Temperature and top-p sweeps (§IV-C4)",
			Backends:    c.modelBackends(),
			Sweeps:      paramsSweeps(),
		}, nil
	},
	"all": func(c BuiltinConfig) (Spec, error) {
		var sweeps []SweepSpec
		sweeps = append(sweeps, tablesSweeps()...)
		sweeps = append(sweeps, fig4Sweeps()...)
		sweeps = append(sweeps, fig5Sweeps()...)
		sweeps = append(sweeps, fig6Sweeps()...)
		sweeps = append(sweeps, paramsSweeps()...)
		return Spec{
			Name:        "all",
			Description: "The paper's full LLM evaluation section",
			Backends:    c.modelBackends(),
			Sweeps:      sweeps,
		}, nil
	},
	"neighborhood": func(c BuiltinConfig) (Spec, error) {
		return Spec{
			Name:        "neighborhood",
			Description: "Committee-driven neighborhood environment analysis (Fig. 1 end to end)",
			Backends:    map[string]backend.Spec{"committee": c.committeeSpec()},
			Analyses:    []AnalysisSpec{{Name: "neighborhood", Backend: "committee", TractFeet: 5000}},
		}, nil
	},
	"yolo": func(c BuiltinConfig) (Spec, error) {
		return Spec{
			Name:        "yolo",
			Description: "Detector presence predictions over the whole corpus (Fig. 5's YOLO bar)",
			Backends:    map[string]backend.Spec{"yolo": {Kind: "yolo"}},
			Sweeps:      []SweepSpec{{Name: "presence", Backends: []string{"yolo"}}},
		}, nil
	},
	"cnn": func(c BuiltinConfig) (Spec, error) {
		return Spec{
			Name:        "cnn",
			Description: "Scene-classification CNN baseline over the whole corpus (§IV-B3)",
			Backends:    map[string]backend.Spec{"cnn": {Kind: "cnn"}},
			Sweeps:      []SweepSpec{{Name: "presence", Backends: []string{"cnn"}}},
		}, nil
	},
	"smoke": func(c BuiltinConfig) (Spec, error) {
		models := []string{string(vlm.ChatGPT4oMini), string(vlm.Gemini15Pro)}
		backends := make(map[string]backend.Spec, len(models))
		for _, m := range models {
			backends[m] = c.modelSpec(vlm.ModelID(m))
		}
		return Spec{
			Name:        "smoke",
			Description: "Small end-to-end run for CI: two models plus their vote",
			Backends:    backends,
			Sweeps: []SweepSpec{
				{Name: "models", Backends: models},
				{Name: "voting", VoteTopOf: "models", VoteTopK: 2},
			},
		}, nil
	},
	"robustness": robustnessSpec,
}

// The robustness matrix is also registered per world family
// ("robustness:coastal"), pinning the morphology in the name so lab jobs
// and CLI flags can schedule one family's matrix without extra config.
func init() {
	for _, fam := range world.Names() {
		fam := fam
		builtinBuilders["robustness:"+fam] = func(c BuiltinConfig) (Spec, error) {
			c.Morphology = fam
			return robustnessSpec(c)
		}
	}
}

// BuiltinNames lists the built-in experiment specs, sorted.
func BuiltinNames() []string {
	out := make([]string, 0, len(builtinBuilders))
	for name := range builtinBuilders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Builtin returns the named built-in spec — the paper's experiments as
// data. The returned spec is a fresh value the caller may modify.
func Builtin(name string, cfg BuiltinConfig) (Spec, error) {
	build, ok := builtinBuilders[name]
	if !ok {
		return Spec{}, fmt.Errorf("experiment: unknown builtin spec %q (have %v)", name, BuiltinNames())
	}
	spec, err := build(cfg)
	if err != nil {
		return Spec{}, err
	}
	spec.Dataset.Coordinates = cfg.Coordinates
	spec.Dataset.Seed = cfg.Seed
	if spec.Dataset.Morphology == "" {
		spec.Dataset.Morphology = cfg.Morphology
	}
	if spec.Dataset.Condition == "" {
		spec.Dataset.Condition = cfg.Condition
	}
	if cfg.TrainEpochs > 0 || cfg.Quantized {
		for name, b := range spec.Backends {
			if b.Kind == "yolo" || b.Kind == "cnn" {
				if cfg.TrainEpochs > 0 {
					b.Epochs = cfg.TrainEpochs
				}
				b.Quantized = b.Quantized || cfg.Quantized
				spec.Backends[name] = b
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
