// Package classify implements the multi-label scene-classification
// baseline the paper compares against (§IV-B3): prior work (Keralis
// et al.'s VGG-16, Nguyen et al.'s VGG-19, Alirezaei et al.'s ResNet-18)
// predicts image-level indicator presence directly, without localization.
// The model here is a compact CNN with the same backbone family as the
// detector but a presence head — enough to reproduce the paper's finding
// that the detection-based pipeline beats scene classification.
package classify

import (
	"fmt"
	"math/rand"

	"nbhd/internal/dataset"
	"nbhd/internal/metrics"
	"nbhd/internal/nn"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/tensor"
)

// Config describes the classifier architecture.
type Config struct {
	// InputSize is the square input resolution; must be divisible by 8.
	// Zero defaults to 64.
	InputSize int
	// Channels are the three backbone stage widths; zero defaults to
	// [8, 16, 32].
	Channels [3]int
	// Seed initializes weights.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.InputSize == 0 {
		c.InputSize = 64
	}
	if c.Channels == [3]int{} {
		c.Channels = [3]int{8, 16, 32}
	}
	return c
}

func (c Config) validate() error {
	if c.InputSize < 16 || c.InputSize%8 != 0 {
		return fmt.Errorf("classify: input size %d must be >= 16 and divisible by 8", c.InputSize)
	}
	for i, ch := range c.Channels {
		if ch <= 0 {
			return fmt.Errorf("classify: stage %d channels %d must be positive", i, ch)
		}
	}
	return nil
}

// Model is the multi-label presence classifier. Training is
// single-threaded; Predict/PredictBatch run on the stateless nn.Infer
// path and are safe for concurrent use (not concurrently with Train).
type Model struct {
	cfg Config
	net *nn.Sequential

	// quantized routes PredictBatch through the int8 inference path
	// (weights prepared by SetQuantized; refreshed after Train).
	quantized bool
}

// SetQuantized switches inference between the f32 and int8 paths.
// Enabling quantizes the current weights, so call it after training or
// loading — never concurrently with inference. Train refreshes the
// quantized weights automatically when the mode is on.
func (m *Model) SetQuantized(enable bool) error {
	if enable {
		if err := m.net.PrepareQuantized(); err != nil {
			return fmt.Errorf("classify: prepare quantized: %w", err)
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

// New builds a randomly initialized classifier.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var layers []nn.Layer
	in := render.Channels
	for _, out := range cfg.Channels {
		conv, err := nn.NewConv2D(in, out, 3, 1, 1, rng)
		if err != nil {
			return nil, fmt.Errorf("classify: %w", err)
		}
		relu, err := nn.NewLeakyReLU(0.1)
		if err != nil {
			return nil, fmt.Errorf("classify: %w", err)
		}
		pool, err := nn.NewMaxPool2D(2, 0)
		if err != nil {
			return nil, fmt.Errorf("classify: %w", err)
		}
		layers = append(layers, conv, relu, pool)
		in = out
	}
	grid := cfg.InputSize / 8
	head, err := nn.NewLinear(in*grid*grid, scene.NumIndicators, rng)
	if err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	layers = append(layers, head)
	return &Model{cfg: cfg, net: nn.NewSequential(layers...)}, nil
}

// InputSize returns the expected input resolution.
func (m *Model) InputSize() int { return m.cfg.InputSize }

// batchInput packs images into a pooled NCHW scratch tensor the caller
// must hand back via tensor.PutScratch.
func (m *Model) batchInput(images []*render.Image) (*tensor.Tensor, error) {
	s := m.cfg.InputSize
	x := tensor.GetScratch(len(images), render.Channels, s, s)
	per := render.Channels * s * s
	for i, img := range images {
		if img.W != s || img.H != s {
			tensor.PutScratch(x)
			return nil, fmt.Errorf("classify: image %d is %dx%d, model expects %dx%d", i, img.W, img.H, s, s)
		}
		copy(x.Data[i*per:(i+1)*per], img.Pix)
	}
	return x, nil
}

// batchTensors packs examples into pooled input and target tensors; both
// go back to the scratch pool after the step.
func (m *Model) batchTensors(batch []dataset.Example, images []*render.Image) (*tensor.Tensor, *tensor.Tensor, error) {
	images = images[:0]
	for i := range batch {
		images = append(images, batch[i].Image)
	}
	x, err := m.batchInput(images)
	if err != nil {
		return nil, nil, err
	}
	y := tensor.GetScratch(len(batch), scene.NumIndicators)
	y.Zero()
	for i := range batch {
		pres := batch[i].Presence()
		for k := 0; k < scene.NumIndicators; k++ {
			if pres[k] {
				y.Set(1, i, k)
			}
		}
	}
	return x, y, nil
}

// TrainConfig holds the classifier's training hyperparameters.
type TrainConfig struct {
	// Epochs defaults to 20 (matching the detector protocol).
	Epochs int
	// BatchSize defaults to 16.
	BatchSize int
	// LearningRate defaults to 2e-3 with Adam.
	LearningRate float64
	// Seed drives shuffling.
	Seed int64
	// Progress receives per-epoch losses.
	Progress func(epoch int, loss float64)
	// Stop, when non-nil, is polled at each epoch boundary; a non-nil
	// return aborts training with that error. Pass ctx.Err to make a
	// long run cancellable without goroutine games.
	Stop func() error
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LearningRate == 0 {
		c.LearningRate = 2e-3
	}
	return c
}

// Train fits the classifier with multi-label binary cross entropy.
func (m *Model) Train(examples []dataset.Example, cfg TrainConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Epochs < 1 || cfg.BatchSize < 1 || cfg.LearningRate <= 0 {
		return fmt.Errorf("classify: invalid training config %+v", cfg)
	}
	if len(examples) == 0 {
		return fmt.Errorf("classify: no training examples")
	}
	opt, err := nn.NewAdam(cfg.LearningRate, 0, 0, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	batch := make([]dataset.Example, 0, cfg.BatchSize)
	images := make([]*render.Image, 0, cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Stop != nil {
			if err := cfg.Stop(); err != nil {
				return fmt.Errorf("classify: training stopped: %w", err)
			}
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		var epochLoss float64
		batches := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch = batch[:0]
			for _, idx := range order[start:end] {
				batch = append(batch, examples[idx])
			}
			loss, err := m.trainStep(batch, images, opt)
			if err != nil {
				return err
			}
			epochLoss += loss
			batches++
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss/float64(batches))
		}
	}
	if m.quantized {
		// Keep the int8 weight copies in sync with the freshly trained
		// f32 weights.
		if err := m.net.PrepareQuantized(); err != nil {
			return fmt.Errorf("classify: refresh quantized weights: %w", err)
		}
	}
	return nil
}

// trainStep runs one optimizer update on a batch; all tensors cycle
// through the scratch pool, keeping steady-state steps allocation-free.
func (m *Model) trainStep(batch []dataset.Example, images []*render.Image, opt nn.Optimizer) (float64, error) {
	x, y, err := m.batchTensors(batch, images)
	if err != nil {
		return 0, err
	}
	release := func() {
		tensor.PutScratch(x)
		tensor.PutScratch(y)
	}
	out, err := m.net.Forward(x)
	if err != nil {
		release()
		return 0, fmt.Errorf("classify: forward: %w", err)
	}
	grad := tensor.GetScratch(out.Shape...)
	loss, err := nn.BCEWithLogitsInto(grad, out, y, nil)
	if err != nil {
		release()
		tensor.PutScratch(grad)
		return 0, fmt.Errorf("classify: loss: %w", err)
	}
	m.net.ZeroGrads()
	gradIn, err := m.net.Backward(grad)
	tensor.PutScratch(grad)
	release()
	if err != nil {
		return 0, fmt.Errorf("classify: backward: %w", err)
	}
	tensor.PutScratch(gradIn)
	if _, err := nn.ClipGradNorm(m.net.Params(), 10); err != nil {
		return 0, err
	}
	if err := opt.Step(m.net.Params()); err != nil {
		return 0, err
	}
	return loss, nil
}

// Predict returns per-indicator presence probabilities for one image. It
// is safe for concurrent use.
func (m *Model) Predict(img *render.Image) ([scene.NumIndicators]float64, error) {
	probs, err := m.PredictBatch([]*render.Image{img})
	if err != nil {
		return [scene.NumIndicators]float64{}, err
	}
	return probs[0], nil
}

// PredictBatch returns presence probabilities for several images from
// one batched forward pass, bit-identical to per-image Predict. It runs
// on the stateless inference path, so concurrent calls on one model are
// safe.
func (m *Model) PredictBatch(images []*render.Image) ([][scene.NumIndicators]float64, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("classify: empty batch")
	}
	x, err := m.batchInput(images)
	if err != nil {
		return nil, err
	}
	var logits *tensor.Tensor
	if m.quantized {
		logits, err = m.net.InferQuantized(x)
	} else {
		logits, err = m.net.Infer(x)
	}
	if err != nil {
		tensor.PutScratch(x)
		return nil, fmt.Errorf("classify: forward: %w", err)
	}
	out := make([][scene.NumIndicators]float64, len(images))
	for i := range images {
		for k := 0; k < scene.NumIndicators; k++ {
			out[i][k] = float64(nn.Sigmoid32(logits.At(i, k)))
		}
	}
	// Infer may return its input unchanged (identity networks), so guard
	// against recycling the same tensor twice.
	if logits != x {
		tensor.PutScratch(logits)
	}
	tensor.PutScratch(x)
	return out, nil
}

// evalBatchSize is the inference batch width used by Evaluate.
const evalBatchSize = 16

// Evaluate scores the classifier's thresholded presence predictions,
// predicting in batches of evalBatchSize; results are bit-identical to
// the per-image sweep.
func (m *Model) Evaluate(examples []dataset.Example, threshold float64) (*metrics.ClassReport, error) {
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("classify: threshold %f outside (0,1)", threshold)
	}
	var report metrics.ClassReport
	imgs := make([]*render.Image, 0, evalBatchSize)
	for start := 0; start < len(examples); start += evalBatchSize {
		end := start + evalBatchSize
		if end > len(examples) {
			end = len(examples)
		}
		imgs = imgs[:0]
		for i := start; i < end; i++ {
			imgs = append(imgs, examples[i].Image)
		}
		probs, err := m.PredictBatch(imgs)
		if err != nil {
			return nil, fmt.Errorf("classify: evaluate batch starting at %s: %w", examples[start].ID, err)
		}
		for k := range probs {
			var pred [scene.NumIndicators]bool
			for j := range probs[k] {
				pred[j] = probs[k][j] >= threshold
			}
			report.AddVector(pred, examples[start+k].Presence())
		}
	}
	return &report, nil
}
