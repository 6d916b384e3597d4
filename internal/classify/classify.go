// Package classify implements the multi-label scene-classification
// baseline the paper compares against (§IV-B3): prior work (Keralis
// et al.'s VGG-16, Nguyen et al.'s VGG-19, Alirezaei et al.'s ResNet-18)
// predicts image-level indicator presence directly, without localization.
// The model here is a compact CNN on the detector's backbone (package
// backbone: the same three stages, int8 switch and training loop) with
// a linear presence head trained by binary cross entropy — enough to
// reproduce the paper's finding that the detection-based pipeline beats
// scene classification.
package classify

import (
	"fmt"
	"math/rand"

	"nbhd/internal/backbone"
	"nbhd/internal/dataset"
	"nbhd/internal/metrics"
	"nbhd/internal/nn"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/tensor"
)

// Config describes the classifier architecture: input resolution,
// backbone stage widths and weight seed.
type Config = backbone.Config

// TrainConfig holds the training protocol's knobs: epochs, batch size,
// shuffle seed, progress and stop hooks.
type TrainConfig = nn.TrainConfig

// learningRate is the classifier's Adam step size.
const learningRate = 2e-3

// Model is the multi-label presence classifier: the shared backbone
// with a linear presence head. Training is single-threaded;
// Predict/PredictBatch run on the stateless nn.Infer path and are safe
// for concurrent use (not concurrently with Train).
type Model struct{ *backbone.Net }

// New builds a randomly initialized classifier.
func New(cfg Config) (*Model, error) {
	net, err := backbone.New("classify", cfg, func(in, grid int, rng *rand.Rand) ([]nn.Layer, error) {
		head, err := nn.NewLinear(in*grid*grid, scene.NumIndicators, rng)
		return []nn.Layer{head}, err
	})
	if err != nil {
		return nil, err
	}
	return &Model{net}, nil
}

// Train fits the classifier with multi-label binary cross entropy.
func (m *Model) Train(examples []dataset.Example, cfg TrainConfig) error {
	return backbone.Train(m.Net, examples, learningRate, cfg, func(batch []dataset.Example, out, grad *tensor.Tensor) (float64, error) {
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
		loss, err := nn.BCEWithLogitsInto(grad, out, y, nil)
		tensor.PutScratch(y)
		return loss, err
	})
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
	out := make([][scene.NumIndicators]float64, len(images))
	err := backbone.Infer(m.Net, images, func(logits *tensor.Tensor) {
		for i := range images {
			for k := 0; k < scene.NumIndicators; k++ {
				out[i][k] = float64(nn.Sigmoid32(logits.At(i, k)))
			}
		}
	})
	if err != nil {
		return nil, err
	}
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
