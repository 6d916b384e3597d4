package backend

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"nbhd/internal/classify"
	"nbhd/internal/yolo"
)

// Spec declaratively describes a backend so experiments can name their
// classifiers as data instead of constructing them in code. The struct
// is flat and JSON-round-trippable: every kind reads the fields it
// needs and ignores the rest; field validation lives in the factories.
//
// Registered kinds and their fields:
//
//	vlm        Model
//	http       Model, BaseURL, APIKey, MaxInFlight, PreferredBatch, Encoding
//	yolo       Epochs, ScoreThresh, NMSIoU, Quantized   (needs an Env to train)
//	cnn        Epochs, Threshold, Quantized             (needs an Env to train)
//	voting     Name, Members   (no member spec may repeat an earlier one)
type Spec struct {
	// Kind selects the registered factory ("vlm", "http", "voting", ...).
	Kind string `json:"kind"`
	// Model is the model ID for the vlm and http kinds.
	Model string `json:"model,omitempty"`
	// BaseURL and APIKey configure the http kind's client.
	BaseURL string `json:"base_url,omitempty"`
	APIKey  string `json:"api_key,omitempty"`
	// Encoding selects the http kind's image wire format: "raw_f32"
	// (default; lossless, reports bit-identical to in-process) or "png".
	Encoding string `json:"encoding,omitempty"`
	// MaxInFlight and PreferredBatch tune the http kind; zeros take the
	// adapter defaults.
	MaxInFlight    int `json:"max_in_flight,omitempty"`
	PreferredBatch int `json:"preferred_batch,omitempty"`
	// MaxRetries, BaseBackoffMS, and MaxRetryAfterMS tune the http
	// kind's retry policy (attempts after a retryable failure, first
	// backoff delay, and the cap on honoring the server's Retry-After,
	// both in milliseconds); zeros take the client defaults.
	MaxRetries      int `json:"max_retries,omitempty"`
	BaseBackoffMS   int `json:"base_backoff_ms,omitempty"`
	MaxRetryAfterMS int `json:"max_retry_after_ms,omitempty"`
	// Epochs is the training budget for the yolo and cnn kinds; zero
	// defaults to the paper's 20.
	Epochs int `json:"epochs,omitempty"`
	// ScoreThresh and NMSIoU tune the yolo kind; zeros take the paper's
	// 0.25 and 0.45.
	ScoreThresh float64 `json:"score_thresh,omitempty"`
	NMSIoU      float64 `json:"nms_iou,omitempty"`
	// Threshold is the cnn kind's presence cutoff; zero defaults to 0.5.
	Threshold float64 `json:"threshold,omitempty"`
	// Quantized switches the yolo and cnn kinds to int8 inference after
	// training: weights are quantized once, activations per batch. See
	// docs/QUANTIZATION.md for the scheme and its accuracy envelope.
	Quantized bool `json:"quantized,omitempty"`
	// Name labels the voting kind in reports; empty defaults to "voting".
	Name string `json:"name,omitempty"`
	// Members are the voting kind's member backend specs.
	Members []Spec `json:"members,omitempty"`
}

// Env gives spec-opened backends access to the run environment they are
// being opened into. The supervised kinds (yolo, cnn) use it to train
// their model on the run's corpus split; stateless kinds ignore it.
// Open passes a nil Env, under which those kinds fail with a clear
// error — an experiment runner supplies a real one.
type Env interface {
	// TrainDetector trains the YOLO-style detector baseline on the
	// environment's corpus split for the given number of epochs (zero
	// means the training protocol's 20).
	TrainDetector(ctx context.Context, epochs int) (*yolo.Model, error)
	// TrainSceneCNN trains the scene-classification CNN baseline on the
	// same split.
	TrainSceneCNN(ctx context.Context, epochs int) (*classify.Model, error)
}

// Factory constructs a backend from its declarative spec.
type Factory func(ctx context.Context, s Spec, env Env) (Backend, error)

var registry = struct {
	sync.RWMutex
	kinds map[string]Factory
}{kinds: make(map[string]Factory)}

// Register makes a backend kind openable by name. It panics if the kind
// is empty, the factory is nil, or the kind is already registered —
// registration is a package-wiring error, not a runtime condition.
func Register(kind string, f Factory) {
	if kind == "" {
		panic("backend: Register with empty kind")
	}
	if f == nil {
		panic("backend: Register with nil factory for kind " + kind)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.kinds[kind]; dup {
		panic("backend: Register called twice for kind " + kind)
	}
	registry.kinds[kind] = f
}

// Kinds returns the registered backend kinds, sorted.
func Kinds() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.kinds))
	for k := range registry.kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Open constructs a backend from its spec using the registered factory
// for the spec's kind. Kinds that must train a model on a corpus (yolo,
// cnn) need OpenWith and an Env.
func Open(ctx context.Context, s Spec) (Backend, error) {
	return OpenWith(ctx, s, nil)
}

// OpenWith is Open with an environment for kinds that need one.
func OpenWith(ctx context.Context, s Spec, env Env) (Backend, error) {
	if s.Kind == "" {
		return nil, fmt.Errorf("backend: spec has no kind (registered: %s)", strings.Join(Kinds(), ", "))
	}
	registry.RLock()
	f, ok := registry.kinds[s.Kind]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown kind %q (registered: %s)", s.Kind, strings.Join(Kinds(), ", "))
	}
	b, err := f(ctx, s, env)
	if err != nil {
		return nil, fmt.Errorf("backend: open %s: %w", s.Kind, err)
	}
	return b, nil
}
