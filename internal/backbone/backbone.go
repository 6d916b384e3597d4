// Package backbone is the skeleton the two supervised baselines share:
// the scene CNN in classify and the grid detector in yolo. It owns their
// architecture config, the three conv → LeakyReLU → 2×2-pool stages
// under each head, the packing of rendered frames into NCHW batches, the
// switch between the f32 and int8 inference paths, and the hand-off to
// nn.Train, the one training loop. A baseline adds only its head, its
// training targets and loss, and how it reads the network's output.
//
// A baseline's Model embeds *Net, which promotes exactly the public
// methods both offer (InputSize, SetQuantized, Quantized, InferCounts).
// What only the baselines themselves call (Infer, Train, Weights) is
// written as package functions, so embedding does not widen their API.
package backbone

import (
	"fmt"
	"math/rand"

	"nbhd/internal/dataset"
	"nbhd/internal/nn"
	"nbhd/internal/render"
	"nbhd/internal/tensor"
)

// Config describes a baseline's architecture.
type Config struct {
	// InputSize is the square input resolution; it must be at least 16
	// and divisible by 8 (three pooling stages). Zero defaults to 64.
	InputSize int
	// Channels are the widths of the three backbone stages; the zero
	// value defaults to [8, 16, 32].
	Channels [3]int
	// Seed initializes the weights deterministically.
	Seed int64
}

// Net is a backbone with a baseline's head on top. Training is
// single-threaded; Infer runs on the stateless nn inference path and is
// safe for concurrent use, though not concurrently with Train or
// SetQuantized, which change the weights it reads.
type Net struct {
	name string // the owning package, prefixed to errors
	cfg  Config
	seq  *nn.Sequential

	// quantized routes Infer through the int8 path (weights prepared by
	// SetQuantized, refreshed after Train).
	quantized bool
}

// New builds a network from cfg: the three stages, then the layers head
// returns. head receives the last stage's width, the output grid size
// (InputSize/8) and the weight-init stream after the stages have drawn
// from it. name prefixes every error.
func New(name string, cfg Config, head func(in, grid int, rng *rand.Rand) ([]nn.Layer, error)) (*Net, error) {
	if cfg.InputSize == 0 {
		cfg.InputSize = 64
	}
	if cfg.Channels == [3]int{} {
		cfg.Channels = [3]int{8, 16, 32}
	}
	if cfg.InputSize < 16 || cfg.InputSize%8 != 0 {
		return nil, fmt.Errorf("%s: input size %d must be >= 16 and divisible by 8", name, cfg.InputSize)
	}
	for i, ch := range cfg.Channels {
		if ch <= 0 {
			return nil, fmt.Errorf("%s: stage %d channel count %d must be positive", name, i, ch)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	layers, err := stages(cfg.Channels, rng)
	if err == nil {
		var top []nn.Layer
		top, err = head(cfg.Channels[2], cfg.InputSize/8, rng)
		layers = append(layers, top...)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: build network: %w", name, err)
	}
	return &Net{name: name, cfg: cfg, seq: nn.NewSequential(layers...)}, nil
}

// stages builds the three conv 3×3 → LeakyReLU(0.1) → max-pool 2×2
// stages from the rendered frame's channels to channels[2].
func stages(channels [3]int, rng *rand.Rand) ([]nn.Layer, error) {
	var layers []nn.Layer
	in := render.Channels
	for _, out := range channels {
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
	return layers, nil
}

// InputSize returns the expected square input resolution.
func (n *Net) InputSize() int { return n.cfg.InputSize }

// SetQuantized switches inference between the f32 and int8 paths.
// Enabling quantizes the current weights, so call it after training or
// loading — never concurrently with inference. Train refreshes the
// quantized weights automatically when the mode is on.
func (n *Net) SetQuantized(enable bool) error {
	if enable {
		if err := n.seq.PrepareQuantized(); err != nil {
			return fmt.Errorf("%s: prepare quantized: %w", n.name, err)
		}
	}
	n.quantized = enable
	return nil
}

// Quantized reports whether inference runs on the int8 path.
func (n *Net) Quantized() bool { return n.quantized }

// InferCounts exposes the network's f32-vs-quantized dispatch counters
// for serving metrics.
func (n *Net) InferCounts() (f32, quantized uint64) { return n.seq.InferCounts() }

// Weights returns what a saved model must hold: n's config with its
// defaults filled, and its trainable parameters in layer order (cached;
// do not mutate the slice).
func Weights(n *Net) (Config, []*nn.Param) { return n.cfg, n.seq.Params() }

// Infer runs one batched forward pass over images on the inference path
// SetQuantized chose, hands the raw output (sample-major, scratch-owned)
// to read, and recycles every tensor once read returns. It is safe for
// concurrent use.
func Infer(n *Net, images []*render.Image, read func(out *tensor.Tensor)) error {
	x, err := n.pack(images)
	if err != nil {
		return err
	}
	var out *tensor.Tensor
	if n.quantized {
		out, err = n.seq.InferQuantized(x)
	} else {
		out, err = n.seq.Infer(x)
	}
	if err == nil {
		read(out)
		// Infer may return its input unchanged (identity networks), so
		// guard against recycling the same tensor twice.
		if out != x {
			tensor.PutScratch(out)
		}
	}
	tensor.PutScratch(x)
	if err != nil {
		return fmt.Errorf("%s: forward: %w", n.name, err)
	}
	return nil
}

// Train fits n to examples through nn.Train at learning rate lr. Each
// step packs the batch's frames, and loss, given the batch's examples,
// writes the output's gradient into grad and returns the batch loss.
// When the int8 path is on, the quantized weights are refreshed from the
// trained ones afterwards.
func Train(n *Net, examples []dataset.Example, lr float64, cfg nn.TrainConfig,
	loss func(batch []dataset.Example, out, grad *tensor.Tensor) (float64, error)) error {
	var batch []dataset.Example
	var images []*render.Image
	input := func(idx []int) (*tensor.Tensor, error) {
		batch, images = batch[:0], images[:0]
		for _, i := range idx {
			batch = append(batch, examples[i])
			images = append(images, examples[i].Image)
		}
		return n.pack(images)
	}
	err := nn.Train(n.seq, len(examples), lr, cfg, input, func(out, grad *tensor.Tensor) (float64, error) {
		return loss(batch, out, grad)
	})
	if err != nil {
		return fmt.Errorf("%s: %w", n.name, err)
	}
	if n.quantized {
		if err := n.seq.PrepareQuantized(); err != nil {
			return fmt.Errorf("%s: refresh quantized weights: %w", n.name, err)
		}
	}
	return nil
}

// pack copies images into a pooled NCHW scratch tensor, checking each
// against the input resolution; the caller hands it back with
// tensor.PutScratch.
func (n *Net) pack(images []*render.Image) (*tensor.Tensor, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("%s: empty batch", n.name)
	}
	s := n.cfg.InputSize
	x := tensor.GetScratch(len(images), render.Channels, s, s)
	per := render.Channels * s * s
	for i, img := range images {
		if img.W != s || img.H != s {
			tensor.PutScratch(x)
			return nil, fmt.Errorf("%s: image %d is %dx%d, model expects %dx%d", n.name, i, img.W, img.H, s, s)
		}
		copy(x.Data[i*per:(i+1)*per], img.Pix)
	}
	return x, nil
}
