// Package yolo implements a single-stage, anchor-free grid detector in
// the YOLO family — the pure-Go stand-in for the paper's YOLOv11-Nano
// baseline. Each grid cell predicts one box (center offsets, normalized
// size), an objectness logit, and per-class logits; training uses BCE on
// objectness/class and weighted MSE on boxes, and inference decodes the
// grid and applies per-class non-maximum suppression.
package yolo

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"slices"

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

// Config describes the detector architecture.
type Config struct {
	// InputSize is the square input resolution; must be divisible by 8
	// (three pooling stages). Zero defaults to 64.
	InputSize int
	// Channels are the widths of the three backbone stages. Zero value
	// defaults to [8, 16, 32].
	Channels [3]int
	// Seed initializes the weights deterministically.
	Seed int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.InputSize == 0 {
		c.InputSize = 64
	}
	if c.Channels == [3]int{} {
		c.Channels = [3]int{8, 16, 32}
	}
	return c
}

// validate checks the architecture constraints.
func (c Config) validate() error {
	if c.InputSize < 16 || c.InputSize%8 != 0 {
		return fmt.Errorf("yolo: input size %d must be >= 16 and divisible by 8", c.InputSize)
	}
	for i, ch := range c.Channels {
		if ch <= 0 {
			return fmt.Errorf("yolo: stage %d channel count %d must be positive", i, ch)
		}
	}
	return nil
}

// Model is the detector. Training (Train) is single-threaded; inference
// (Detect/DetectBatch) runs on the stateless nn.Infer path and is safe
// for concurrent use — though not concurrently with Train, which mutates
// the weights.
type Model struct {
	cfg  Config
	grid int
	net  *nn.Sequential

	// quantized routes DetectBatch through the int8 inference path
	// (weights prepared by SetQuantized; refreshed after Train).
	quantized bool

	// claimedArea is encodeTargets' per-cell claim scratch, reused across
	// training steps.
	claimedArea []float64
}

// SetQuantized switches inference between the f32 and int8 paths.
// Enabling quantizes the current weights, so call it after training or
// loading — never concurrently with inference. Train refreshes the
// quantized weights automatically when the mode is on.
func (m *Model) SetQuantized(enable bool) error {
	if enable {
		if err := m.net.PrepareQuantized(); err != nil {
			return fmt.Errorf("yolo: prepare quantized: %w", err)
		}
	}
	m.quantized = enable
	return nil
}

// Quantized reports whether inference runs on the int8 path.
func (m *Model) Quantized() bool { return m.quantized }

// InferCounts exposes the network's f32-vs-quantized dispatch counters
// for serving metrics.
func (m *Model) InferCounts() (f32, quantized uint64) { return m.net.InferCounts() }

// New builds a randomly initialized detector.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mk := func() ([]nn.Layer, error) {
		var layers []nn.Layer
		in := render.Channels
		for _, out := range cfg.Channels {
			conv, err := nn.NewConv2D(in, out, 3, 1, 1, rng)
			if err != nil {
				return nil, err
			}
			relu, err := nn.NewLeakyReLU(0.1)
			if err != nil {
				return nil, err
			}
			pool, err := nn.NewMaxPool2D(2, 0)
			if err != nil {
				return nil, err
			}
			layers = append(layers, conv, relu, pool)
			in = out
		}
		// Refinement stage at grid resolution.
		conv, err := nn.NewConv2D(in, in, 3, 1, 1, rng)
		if err != nil {
			return nil, err
		}
		relu, err := nn.NewLeakyReLU(0.1)
		if err != nil {
			return nil, err
		}
		head, err := nn.NewConv2D(in, CellOutputs, 1, 1, 0, rng)
		if err != nil {
			return nil, err
		}
		return append(layers, conv, relu, head), nil
	}
	layers, err := mk()
	if err != nil {
		return nil, fmt.Errorf("yolo: build network: %w", err)
	}
	return &Model{cfg: cfg, grid: cfg.InputSize / 8, net: nn.NewSequential(layers...)}, nil
}

// GridSize returns the detector's output grid resolution.
func (m *Model) GridSize() int { return m.grid }

// InputSize returns the expected square input resolution.
func (m *Model) InputSize() int { return m.cfg.InputSize }

// ParamCount returns the number of trainable scalars.
func (m *Model) ParamCount() int { return m.net.ParamCount() }

// batchTensor packs rendered images into a pooled NCHW scratch tensor,
// validating resolution. Callers own the tensor and should hand it back
// via tensor.PutScratch.
func (m *Model) batchTensor(images []*render.Image) (*tensor.Tensor, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("yolo: empty batch")
	}
	s := m.cfg.InputSize
	x := tensor.GetScratch(len(images), render.Channels, s, s)
	per := render.Channels * s * s
	for i, img := range images {
		if img.W != s || img.H != s {
			tensor.PutScratch(x)
			return nil, fmt.Errorf("yolo: image %d is %dx%d, model expects %dx%d", i, img.W, img.H, s, s)
		}
		copy(x.Data[i*per:(i+1)*per], img.Pix)
	}
	return x, nil
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
	x, err := m.batchTensor(imgs)
	if err != nil {
		return nil, err
	}
	var out *tensor.Tensor
	if m.quantized {
		out, err = m.net.InferQuantized(x)
	} else {
		out, err = m.net.Infer(x)
	}
	if err != nil {
		tensor.PutScratch(x)
		return nil, fmt.Errorf("yolo: forward: %w", err)
	}
	res := make([][]Detection, len(imgs))
	for s := range imgs {
		res[s] = nonMaxSuppress(m.decode(out, s, scoreThresh), nmsIoU)
	}
	// Infer may return its input unchanged (identity networks), so guard
	// against recycling the same tensor twice.
	if out != x {
		tensor.PutScratch(out)
	}
	tensor.PutScratch(x)
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
	params := m.net.Params()
	blob := savedModel{Config: m.cfg, Params: make([][]float32, len(params))}
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
	params := m.net.Params()
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
