package backend

import (
	"context"
	"fmt"

	"nbhd/internal/backbone"
	"nbhd/internal/classify"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/yolo"
)

func init() {
	Register("cnn", func(ctx context.Context, s Spec, env Env) (Backend, error) {
		m, err := trainIn(s, env, func() (*classify.Model, error) { return env.TrainSceneCNN(ctx, s.Epochs) })
		if err != nil {
			return nil, err
		}
		return NewCNN(m, s.Threshold)
	})
	Register("yolo", func(ctx context.Context, s Spec, env Env) (Backend, error) {
		m, err := trainIn(s, env, func() (*yolo.Model, error) { return env.TrainDetector(ctx, s.Epochs) })
		if err != nil {
			return nil, err
		}
		return NewYOLO(m, s.ScoreThresh, s.NMSIoU)
	})
}

// trainIn trains a supervised kind's model in env and switches it to
// int8 inference when the spec asks for it.
func trainIn[M interface{ SetQuantized(bool) error }](s Spec, env Env, train func() (M, error)) (M, error) {
	if env == nil {
		var none M
		return none, fmt.Errorf("%s spec needs an environment to train in (use OpenWith)", s.Kind)
	}
	m, err := train()
	if err == nil && s.Quantized {
		err = m.SetQuantized(true)
	}
	return m, err
}

// supervised adapts a trained baseline on the shared backbone (the
// scene CNN or the grid detector) to the Backend interface. presence is
// the baseline's one rule from a batch of frames to image-level
// indicator presence; everything else about driving the model is here.
//
// Inference runs on the model's stateless path, so the adapter is
// reentrant: the engine fans concurrent Classify calls across its worker
// pool, and each call is one batched forward pass over the request.
type supervised struct {
	name     string
	net      *backbone.Net
	presence func([]*render.Image) ([][scene.NumIndicators]bool, error)
}

// NewCNN wraps the multi-label scene-classification baseline (§IV-B3):
// an indicator is present when its predicted probability reaches the
// threshold. A zero threshold defaults to 0.5.
func NewCNN(m *classify.Model, threshold float64) (Backend, error) {
	if m == nil {
		return nil, fmt.Errorf("backend: nil classifier model")
	}
	if threshold == 0 {
		threshold = 0.5
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("backend: threshold %f outside (0,1)", threshold)
	}
	return &supervised{name: "cnn", net: m.Net, presence: func(imgs []*render.Image) ([][scene.NumIndicators]bool, error) {
		probs, err := m.PredictBatch(imgs)
		if err != nil {
			return nil, err
		}
		present := make([][scene.NumIndicators]bool, len(probs))
		for i := range probs {
			for k, p := range probs[i] {
				present[i][k] = p >= threshold
			}
		}
		return present, nil
	}}, nil
}

// NewYOLO wraps the trained grid detector: an indicator is present when
// any detection of its class clears the score threshold, the comparison
// the paper's Fig. 5 makes between YOLOv11 and the LLMs. Zero thresholds
// default to the paper's 0.25 score and 0.45 NMS IoU.
func NewYOLO(m *yolo.Model, scoreThresh, nmsIoU float64) (Backend, error) {
	if m == nil {
		return nil, fmt.Errorf("backend: nil detector")
	}
	if scoreThresh == 0 {
		scoreThresh = 0.25
	}
	if nmsIoU == 0 {
		nmsIoU = 0.45
	}
	if scoreThresh <= 0 || scoreThresh >= 1 || nmsIoU <= 0 || nmsIoU >= 1 {
		return nil, fmt.Errorf("backend: thresholds (%f, %f) outside (0,1)", scoreThresh, nmsIoU)
	}
	return &supervised{name: "yolo", net: m.Net, presence: func(imgs []*render.Image) ([][scene.NumIndicators]bool, error) {
		batchDets, err := m.DetectBatch(imgs, scoreThresh, nmsIoU)
		if err != nil {
			return nil, err
		}
		present := make([][scene.NumIndicators]bool, len(batchDets))
		for i, dets := range batchDets {
			for _, d := range dets {
				if idx := d.Class.Index(); idx >= 0 {
					present[i][idx] = true
				}
			}
		}
		return present, nil
	}}, nil
}

// Name identifies the backend.
func (s *supervised) Name() string { return s.name }

// Capabilities: the model needs frames at its own input resolution,
// does not consume perception features, and tolerates unbounded
// concurrent Classify calls.
func (s *supervised) Capabilities() Capabilities {
	return Capabilities{
		PreferredBatch: 16,
		RenderSize:     s.net.InputSize(),
		Quantized:      s.net.Quantized(),
	}
}

// ComputeStats exposes the model's f32-vs-int8 dispatch counters for the
// serve gateway's /metricsz.
func (s *supervised) ComputeStats() ComputeStats {
	f32, quant := s.net.InferCounts()
	return ComputeStats{F32Infers: f32, QuantizedInfers: quant}
}

// Classify runs one batched forward pass over every frame and answers
// each asked indicator from the frame's presence vector.
func (s *supervised) Classify(ctx context.Context, req BatchRequest) (BatchResult, error) {
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
	present, err := s.presence(imgs)
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: %s: batch starting at %s: %w", s.name, req.Items[0].ID, err)
	}
	answers := make([][]bool, len(req.Items))
	for i := range present {
		ans := make([]bool, len(req.Options.Indicators))
		for k, ind := range req.Options.Indicators {
			if idx := ind.Index(); idx >= 0 {
				ans[k] = present[i][idx]
			}
		}
		answers[i] = ans
	}
	return BatchResult{Answers: answers}, nil
}
