// Package yolo implements a single-stage, anchor-free grid detector in
// the YOLO family — the pure-Go stand-in for the paper's YOLOv11-Nano
// baseline. Each grid cell predicts one box (center offsets, normalized
// size), an objectness logit, and per-class logits; training uses BCE on
// objectness/class and weighted MSE on boxes, and inference decodes the
// grid and applies per-class non-maximum suppression. The backbone, the
// int8 switch and the training loop are the scene CNN's too (package
// backbone); this package adds the grid head, its targets and loss, and
// decoding.
package yolo

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"slices"

	"nbhd/internal/backbone"
	"nbhd/internal/metrics"
	"nbhd/internal/nn"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/tensor"
)

// BoxFields is the number of per-cell box/objectness outputs:
// cx, cy, w, h, objectness.
const BoxFields = 5

// CellOutputs is the per-cell prediction width.
const CellOutputs = BoxFields + scene.NumIndicators

// Config describes the detector architecture: input resolution,
// backbone stage widths and weight seed.
type Config = backbone.Config

// Model is the detector: the shared backbone, a 3×3 refinement conv at
// grid resolution and a 1×1 head to CellOutputs per cell. Training
// (Train) is single-threaded; inference (DetectBatch) runs on the
// stateless nn.Infer path and is safe for concurrent use — though not
// concurrently with Train, which mutates the weights.
type Model struct {
	*backbone.Net
	grid int

	// claimedArea is encodeTargets' per-cell claim scratch, reused across
	// training steps.
	claimedArea []float64
}

// New builds a randomly initialized detector.
func New(cfg Config) (*Model, error) {
	net, err := backbone.New("yolo", cfg, func(in, _ int, rng *rand.Rand) ([]nn.Layer, error) {
		conv, err := nn.NewConv2D(in, in, 3, 1, 1, rng)
		if err != nil {
			return nil, err
		}
		relu, err := nn.NewLeakyReLU(0.1)
		if err != nil {
			return nil, err
		}
		head, err := nn.NewConv2D(in, CellOutputs, 1, 1, 0, rng)
		return []nn.Layer{conv, relu, head}, err
	})
	if err != nil {
		return nil, err
	}
	return &Model{Net: net, grid: net.InputSize() / 8}, nil
}

// Detection re-exports the metrics detection type for callers.
type Detection = metrics.Detection

// DetectBatch runs one batched forward pass over several images and
// returns each image's NMS-filtered detections with scores above
// scoreThresh, bit-identical to one call per image. It runs on the
// stateless inference path, so concurrent DetectBatch calls on one
// model are safe — the evaluation engine fans them across its worker
// pool.
func (m *Model) DetectBatch(imgs []*render.Image, scoreThresh, nmsIoU float64) ([][]Detection, error) {
	if scoreThresh < 0 || scoreThresh > 1 {
		return nil, fmt.Errorf("yolo: score threshold %f outside [0,1]", scoreThresh)
	}
	res := make([][]Detection, len(imgs))
	err := backbone.Infer(m.Net, imgs, func(out *tensor.Tensor) {
		for s := range imgs {
			res[s] = nonMaxSuppress(m.decode(out, s, scoreThresh), nmsIoU)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// decode converts one sample's raw grid output into scored detections.
func (m *Model) decode(out *tensor.Tensor, sample int, scoreThresh float64) []Detection {
	g := m.grid
	var dets []Detection
	at := func(c, y, x int) float32 { return out.At(sample, c, y, x) }
	for cy := 0; cy < g; cy++ {
		for cx := 0; cx < g; cx++ {
			obj := float64(sigmoid(at(4, cy, cx)))
			bx := (float64(cx) + float64(sigmoid(at(0, cy, cx)))) / float64(g)
			by := (float64(cy) + float64(sigmoid(at(1, cy, cx)))) / float64(g)
			// Size logits decode through sigmoid then squaring, matching
			// the sqrt-encoded training targets.
			sw := float64(sigmoid(at(2, cy, cx)))
			sh := float64(sigmoid(at(3, cy, cx)))
			bw := sw * sw
			bh := sh * sh
			box := scene.Rect{
				X0: bx - bw/2, Y0: by - bh/2,
				X1: bx + bw/2, Y1: by + bh/2,
			}.Clamp()
			if !box.Valid() {
				continue
			}
			for k, ind := range scene.Indicators() {
				score := obj * float64(sigmoid(at(BoxFields+k, cy, cx)))
				if score >= scoreThresh {
					dets = append(dets, Detection{Class: ind, BBox: box, Score: score})
				}
			}
		}
	}
	return dets
}

// sigmoid is the scalar logistic function, shared with the training path
// so decode rounds identically (the historical version built a one-element
// tensor per call — hundreds of allocations per decoded frame).
func sigmoid(v float32) float32 { return nn.Sigmoid32(v) }

// nonMaxSuppress applies greedy per-class NMS.
func nonMaxSuppress(dets []Detection, iouThresh float64) []Detection {
	// Stable sort via the generic slices API — same ordering as the old
	// sort.SliceStable but without its reflection-based swapper, which
	// showed up in inference profiles.
	slices.SortStableFunc(dets, func(a, b Detection) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return 0
	})
	var kept []Detection
	for _, d := range dets {
		suppressed := false
		for _, k := range kept {
			if k.Class == d.Class && k.BBox.IoU(d.BBox) > iouThresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// SaveParams serializes the model weights with gob. The architecture
// config is written alongside so Load can validate compatibility.
func (m *Model) SaveParams(w io.Writer) error {
	cfg, params := backbone.Weights(m.Net)
	blob := savedModel{Config: cfg, Params: make([][]float32, len(params))}
	for i, p := range params {
		blob.Params[i] = p.Value.Data
	}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("yolo: save params: %w", err)
	}
	return nil
}

type savedModel struct {
	Config Config
	Params [][]float32
}

// Load reconstructs a model from a SaveParams stream.
func Load(r io.Reader) (*Model, error) {
	var blob savedModel
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("yolo: load params: %w", err)
	}
	m, err := New(blob.Config)
	if err != nil {
		return nil, err
	}
	_, params := backbone.Weights(m.Net)
	if len(params) != len(blob.Params) {
		return nil, fmt.Errorf("yolo: saved model has %d tensors, architecture needs %d", len(blob.Params), len(params))
	}
	for i, p := range params {
		if len(p.Value.Data) != len(blob.Params[i]) {
			return nil, fmt.Errorf("yolo: saved tensor %d has %d elems, want %d", i, len(blob.Params[i]), len(p.Value.Data))
		}
		copy(p.Value.Data, blob.Params[i])
	}
	return m, nil
}
