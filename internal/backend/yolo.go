package backend

import (
	"context"
	"fmt"

	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/yolo"
)

func init() {
	Register("yolo", func(ctx context.Context, s Spec, env Env) (Backend, error) {
		if env == nil {
			return nil, fmt.Errorf("yolo spec needs an environment to train in (use OpenWith)")
		}
		m, err := env.TrainDetector(ctx, s.Epochs)
		if err == nil && s.Quantized {
			err = m.SetQuantized(true)
		}
		if err != nil {
			return nil, err
		}
		return NewYOLO(m, s.ScoreThresh, s.NMSIoU)
	})
}

// YOLO adapts the trained grid detector to the Backend interface by
// deriving image-level indicator presence from its detections: an
// indicator is predicted present when any detection of that class clears
// the score threshold — the comparison the paper's Fig. 5 makes between
// YOLOv11 and the LLMs.
//
// Detection runs on the model's stateless inference path, so the adapter
// is fully reentrant: the engine fans concurrent Classify calls across
// its worker pool, and each call is one batched forward pass over the
// whole request.
type YOLO struct {
	model       *yolo.Model
	scoreThresh float64
	nmsIoU      float64
}

// NewYOLO wraps a trained detector. Zero thresholds default to the
// paper's 0.25 score and 0.45 NMS IoU.
func NewYOLO(m *yolo.Model, scoreThresh, nmsIoU float64) (*YOLO, error) {
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
	return &YOLO{model: m, scoreThresh: scoreThresh, nmsIoU: nmsIoU}, nil
}

// Name identifies the backend.
func (y *YOLO) Name() string { return "yolo" }

// Capabilities: the detector needs frames at its own input resolution,
// does not consume perception features, and — because inference is
// stateless and reentrant — tolerates unbounded concurrent Classify
// calls.
func (y *YOLO) Capabilities() Capabilities {
	return Capabilities{
		PreferredBatch: 16,
		RenderSize:     y.model.InputSize(),
		Quantized:      y.model.Quantized(),
	}
}

// ComputeStats exposes the detector's f32-vs-int8 dispatch counters for
// the serve gateway's /metricsz.
func (y *YOLO) ComputeStats() ComputeStats {
	f32, quant := y.model.InferCounts()
	return ComputeStats{F32Infers: f32, QuantizedInfers: quant}
}

// Classify detects objects in every frame with one batched forward pass
// and reports per-indicator presence.
func (y *YOLO) Classify(ctx context.Context, req BatchRequest) (BatchResult, error) {
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
	batchDets, err := y.model.DetectBatch(imgs, y.scoreThresh, y.nmsIoU)
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: yolo: detect batch starting at %s: %w", req.Items[0].ID, err)
	}
	answers := make([][]bool, len(req.Items))
	for i, dets := range batchDets {
		var present [scene.NumIndicators]bool
		for _, d := range dets {
			if idx := d.Class.Index(); idx >= 0 {
				present[idx] = true
			}
		}
		ans := make([]bool, len(req.Options.Indicators))
		for k, ind := range req.Options.Indicators {
			if idx := ind.Index(); idx >= 0 {
				ans[k] = present[idx]
			}
		}
		answers[i] = ans
	}
	return BatchResult{Answers: answers}, nil
}
