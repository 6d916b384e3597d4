package nn

import (
	"fmt"
	"math/rand"

	"nbhd/internal/tensor"
)

// TrainConfig holds the supervised training protocol's knobs, the same
// for the detector and the scene CNN. The paper trains for 20 epochs at
// batch size 16.
type TrainConfig struct {
	// Epochs is the number of passes over the training set; zero
	// defaults to 20.
	Epochs int
	// BatchSize defaults to 16.
	BatchSize int
	// Seed drives shuffling.
	Seed int64
	// Progress, when non-nil, receives each epoch's mean batch loss.
	Progress func(epoch int, loss float64)
	// Stop, when non-nil, is polled as each epoch opens; a non-nil
	// return aborts training with an error wrapping it. Pass ctx.Err to
	// make a long run cancellable.
	Stop func() error
}

// Train fits net to n examples with Adam at learning rate lr. Each
// epoch polls cfg.Stop, reshuffles the example order from cfg.Seed's
// stream, and walks it in batches of cfg.BatchSize indices. A step packs
// the batch with input and runs Forward; loss, for the batch input last
// packed, writes the output's gradient into grad (a scratch tensor of
// the output's shape) and returns the batch loss. Then Backward runs,
// the global gradient norm is clipped at 10 and Adam steps. The input
// tensor goes back to the scratch pool after the step, as does every
// intermediate, so steady-state steps allocate almost nothing.
func Train(net *Sequential, n int, lr float64, cfg TrainConfig,
	input func(batch []int) (*tensor.Tensor, error),
	loss func(out, grad *tensor.Tensor) (float64, error)) error {
	if cfg.Epochs == 0 {
		cfg.Epochs = 20
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs < 1 || cfg.BatchSize < 1 {
		return fmt.Errorf("nn: invalid training config: %d epochs, batch size %d", cfg.Epochs, cfg.BatchSize)
	}
	if n == 0 {
		return fmt.Errorf("nn: no training examples")
	}
	opt, err := NewAdam(lr, 0, 0, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Stop != nil {
			if err := cfg.Stop(); err != nil {
				return fmt.Errorf("nn: training stopped: %w", err)
			}
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		var epochLoss float64
		batches := 0
		for start := 0; start < n; start += cfg.BatchSize {
			l, err := trainStep(net, opt, order[start:min(start+cfg.BatchSize, n)], input, loss)
			if err != nil {
				return fmt.Errorf("nn: epoch %d: %w", epoch, err)
			}
			epochLoss += l
			batches++
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss/float64(batches))
		}
	}
	return nil
}

// trainStep runs Train's step on one batch and returns its loss.
func trainStep(net *Sequential, opt Optimizer, batch []int,
	input func([]int) (*tensor.Tensor, error),
	loss func(out, grad *tensor.Tensor) (float64, error)) (float64, error) {
	x, err := input(batch)
	if err != nil {
		return 0, err
	}
	out, err := net.Forward(x)
	if err != nil {
		tensor.PutScratch(x)
		return 0, err
	}
	grad := tensor.GetScratch(out.Shape...)
	l, err := loss(out, grad)
	if err == nil {
		net.ZeroGrads()
		var gradIn *tensor.Tensor
		if gradIn, err = net.Backward(grad); err == nil {
			tensor.PutScratch(gradIn)
		}
	}
	tensor.PutScratch(grad)
	tensor.PutScratch(x)
	if err != nil {
		return 0, err
	}
	if _, err := ClipGradNorm(net.Params(), 10); err != nil {
		return 0, err
	}
	return l, opt.Step(net.Params())
}
