package backend

import (
	"context"
	"fmt"

	"nbhd/internal/vlm"
)

func init() {
	Register("vlm", func(ctx context.Context, s Spec, env Env) (Backend, error) {
		m, err := specModel(s.Model)
		if err != nil {
			return nil, err
		}
		return NewVLM(m)
	})
}

// specModel builds one builtin simulated model from its spec ID.
func specModel(id string) (*vlm.Model, error) {
	if id == "" {
		return nil, fmt.Errorf("spec needs a model ID (one of %v)", vlm.AllModels())
	}
	profile, err := vlm.ProfileFor(vlm.ModelID(id))
	if err != nil {
		return nil, err
	}
	return vlm.NewModel(profile)
}

// Local adapts one builtin simulated vision LLM to the Backend
// interface. Its answers are bit-identical to calling the model
// directly: the adapter builds the same vlm.Request the pre-backend
// evaluation loop built, and routes through ClassifyPerceived when the
// engine supplies cached features.
type Local struct {
	name string
	m    *vlm.Model
}

// NewVLM wraps one builtin simulated vision LLM.
func NewVLM(m *vlm.Model) (*Local, error) {
	if m == nil {
		return nil, fmt.Errorf("backend: nil model")
	}
	return &Local{name: "vlm:" + string(m.ID()), m: m}, nil
}

// Name identifies the backend.
func (l *Local) Name() string { return l.name }

// Capabilities: the simulated model is stateless per call, so any
// concurrency and batch shape works; frame-at-a-time keeps the engine's
// work distribution fine-grained.
func (l *Local) Capabilities() Capabilities {
	return Capabilities{PerceivedFeatures: true}
}

// Classify answers each item in order, using the perception fast path
// when the engine precomputed features.
func (l *Local) Classify(ctx context.Context, req BatchRequest) (BatchResult, error) {
	answers := make([][]bool, len(req.Items))
	for i := range req.Items {
		if err := ctx.Err(); err != nil {
			return BatchResult{}, err
		}
		it := &req.Items[i]
		r := vlm.Request{
			Image:       it.Image,
			Indicators:  req.Options.Indicators,
			Language:    req.Options.Language,
			Mode:        req.Options.Mode,
			Temperature: req.Options.Temperature,
			TopP:        req.Options.TopP,
			Nonce:       req.Options.Nonce,
		}
		var (
			ans []bool
			err error
		)
		if it.Feats != nil {
			ans, err = l.m.ClassifyPerceived(r, *it.Feats)
		} else {
			ans, err = l.m.Classify(r)
		}
		if err != nil {
			return BatchResult{}, fmt.Errorf("backend: %s: classify %s: %w", l.name, it.ID, err)
		}
		answers[i] = ans
	}
	return BatchResult{Answers: answers}, nil
}
