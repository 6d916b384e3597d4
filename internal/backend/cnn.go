package backend

import (
	"context"
	"fmt"

	"nbhd/internal/classify"
	"nbhd/internal/render"
)

func init() {
	Register("cnn", func(ctx context.Context, s Spec, env Env) (Backend, error) {
		if env == nil {
			return nil, fmt.Errorf("cnn spec needs an environment to train in (use OpenWith)")
		}
		m, err := env.TrainSceneCNN(ctx, s.Epochs)
		if err == nil && s.Quantized {
			err = m.SetQuantized(true)
		}
		if err != nil {
			return nil, err
		}
		return NewCNN(m, s.Threshold)
	})
}

// CNN adapts the multi-label scene-classification baseline (§IV-B3) to
// the Backend interface: per-indicator presence probabilities from the
// compact CNN, thresholded into Yes/No answers.
//
// Prediction runs on the model's stateless inference path, so the
// adapter is reentrant (see YOLO); each Classify call is one batched
// forward pass.
type CNN struct {
	model     *classify.Model
	threshold float64
}

// NewCNN wraps a trained classifier. A zero threshold defaults to 0.5.
func NewCNN(m *classify.Model, threshold float64) (*CNN, error) {
	if m == nil {
		return nil, fmt.Errorf("backend: nil classifier model")
	}
	if threshold == 0 {
		threshold = 0.5
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("backend: threshold %f outside (0,1)", threshold)
	}
	return &CNN{model: m, threshold: threshold}, nil
}

// Name identifies the backend.
func (c *CNN) Name() string { return "cnn" }

// Capabilities: the CNN needs frames at its own input resolution and
// tolerates unbounded concurrent Classify calls (stateless inference).
func (c *CNN) Capabilities() Capabilities {
	return Capabilities{
		PreferredBatch: 16,
		RenderSize:     c.model.InputSize(),
		Quantized:      c.model.Quantized(),
	}
}

// ComputeStats exposes the classifier's f32-vs-int8 dispatch counters
// for the serve gateway's /metricsz.
func (c *CNN) ComputeStats() ComputeStats {
	f32, quant := c.model.InferCounts()
	return ComputeStats{F32Infers: f32, QuantizedInfers: quant}
}

// Classify predicts presence probabilities for every frame with one
// batched forward pass and thresholds them.
func (c *CNN) Classify(ctx context.Context, req BatchRequest) (BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}
	if len(req.Items) == 0 {
		return BatchResult{Answers: [][]bool{}}, nil
	}
	imgs := make([]*render.Image, len(req.Items))
	for i := range req.Items {
		imgs[i] = req.Items[i].Image
	}
	probs, err := c.model.PredictBatch(imgs)
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: cnn: predict batch starting at %s: %w", req.Items[0].ID, err)
	}
	answers := make([][]bool, len(req.Items))
	for i := range probs {
		ans := make([]bool, len(req.Options.Indicators))
		for k, ind := range req.Options.Indicators {
			if idx := ind.Index(); idx >= 0 {
				ans[k] = probs[i][idx] >= c.threshold
			}
		}
		answers[i] = ans
	}
	return BatchResult{Answers: answers}, nil
}
