package backend

import (
	"context"
	"fmt"
	"strings"

	"nbhd/internal/ensemble"
	"nbhd/internal/vlm"
)

// Classifier is the minimal single-frame classification surface the
// in-process adapters wrap: a simulated vision LLM, a committee, or any
// test double.
type Classifier interface {
	Classify(req vlm.Request) ([]bool, error)
}

// PerceivingClassifier is a Classifier with the shared-perception fast
// path: it can consume features perceived once per frame by the engine.
type PerceivingClassifier interface {
	Classifier
	ClassifyPerceived(req vlm.Request, feats vlm.Features) ([]bool, error)
}

// The in-repo classifiers all support the fast path.
var (
	_ PerceivingClassifier = (*vlm.Model)(nil)
	_ PerceivingClassifier = (*ensemble.Committee)(nil)
)

func init() {
	Register("vlm", func(ctx context.Context, s Spec, env Env) (Backend, error) {
		m, err := specModel(s.Model)
		if err != nil {
			return nil, err
		}
		return NewVLM(m)
	})
	Register("committee", func(ctx context.Context, s Spec, env Env) (Backend, error) {
		if len(s.Models) == 0 {
			return nil, fmt.Errorf("committee spec needs models")
		}
		members := make([]*vlm.Model, 0, len(s.Models))
		for _, id := range s.Models {
			m, err := specModel(id)
			if err != nil {
				return nil, err
			}
			members = append(members, m)
		}
		c, err := ensemble.NewCommittee(members...)
		if err != nil {
			return nil, err
		}
		return NewCommittee(c)
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

// Local adapts an in-process Classifier to the Backend interface. Its
// answers are bit-identical to calling the classifier directly: the
// adapter builds the same vlm.Request the pre-backend evaluation loop
// built, and routes through ClassifyPerceived when the engine supplies
// cached features.
type Local struct {
	name string
	c    Classifier
	pc   PerceivingClassifier // non-nil when c has the fast path
}

// NewLocal wraps a classifier. The name labels the backend in errors and
// reports; empty defaults to "local".
func NewLocal(name string, c Classifier) (*Local, error) {
	if c == nil {
		return nil, fmt.Errorf("backend: nil classifier")
	}
	if name == "" {
		name = "local"
	}
	l := &Local{name: name, c: c}
	if pc, ok := c.(PerceivingClassifier); ok {
		l.pc = pc
	}
	return l, nil
}

// NewVLM wraps one builtin simulated vision LLM.
func NewVLM(m *vlm.Model) (*Local, error) {
	if m == nil {
		return nil, fmt.Errorf("backend: nil model")
	}
	return NewLocal("vlm:"+string(m.ID()), m)
}

// NewCommittee wraps a majority-voting committee of builtin models.
func NewCommittee(c *ensemble.Committee) (*Local, error) {
	if c == nil {
		return nil, fmt.Errorf("backend: nil committee")
	}
	ids := make([]string, 0, c.Size())
	for _, id := range c.Members() {
		ids = append(ids, string(id))
	}
	return NewLocal("committee:"+strings.Join(ids, "+"), c)
}

// Name identifies the backend.
func (l *Local) Name() string { return l.name }

// Capabilities: in-process classifiers are stateless per call, so any
// concurrency and batch shape works; frame-at-a-time keeps the engine's
// work distribution fine-grained.
func (l *Local) Capabilities() Capabilities {
	return Capabilities{PerceivedFeatures: l.pc != nil}
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
		if l.pc != nil && it.Feats != nil {
			ans, err = l.pc.ClassifyPerceived(r, *it.Feats)
		} else {
			ans, err = l.c.Classify(r)
		}
		if err != nil {
			return BatchResult{}, fmt.Errorf("backend: %s: classify %s: %w", l.name, it.ID, err)
		}
		answers[i] = ans
	}
	return BatchResult{Answers: answers}, nil
}
