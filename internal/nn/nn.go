// Package nn is a compact neural-network layer library with hand-written
// backpropagation: 2-D convolution (per-sample im2col + one GEMM per sample),
// max pooling, ReLU-family activations, fully connected layers, binary
// cross-entropy and mean-squared-error losses, and the Adam optimizer.
// It is the training substrate for the YOLO-style detector standing in
// for the paper's YOLOv11-Nano baseline. Every layer's analytic gradient
// is verified against central differences in the tests.
//
// The compute layer has two paths. The training path (Forward/Backward)
// runs layer by layer, caches whatever the backward pass needs and
// recycles every intermediate tensor through the shared scratch pool,
// so steady-state training steps allocate almost nothing. The inference
// path (Infer, InferQuantized) is stateless and reentrant: it touches no
// layer caches, so one model can serve concurrent Infer calls — the
// property the evaluation engine uses to fan detector/classifier
// inference across its worker pool. Sequential plans it once per
// network, fusing every Conv2D → LeakyReLU → MaxPool2D(2) block into one
// conv pass whose per-sample epilogue writes the pooled output (fuse.go).
// Both paths run the same kernels and produce bit-identical outputs.
//
// Parallelism has one level, owned by tensor.Parallel: a batch of at
// least GOMAXPROCS samples splits its samples, which workers take one
// at a time, and runs each sample's GEMM on its worker; a smaller one
// lets each GEMM split instead.
package nn

import (
	"fmt"
	"sync/atomic"

	"nbhd/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// newParam allocates a parameter and its zeroed gradient of matching
// shape.
func newParam(name string, shape ...int) (*Param, error) {
	v, err := tensor.New(shape...)
	if err != nil {
		return nil, fmt.Errorf("nn: param %s: %w", name, err)
	}
	g, err := tensor.New(shape...)
	if err != nil {
		return nil, fmt.Errorf("nn: param %s: %w", name, err)
	}
	return &Param{Name: name, Value: v, Grad: g}, nil
}

// Layer is one differentiable stage. Forward caches whatever Backward
// needs; the training path is therefore not safe for concurrent or
// interleaved use. Infer is the opposite contract: no caches, safe for
// concurrent calls on one layer (as long as nothing mutates the
// parameters underneath it).
type Layer interface {
	// Forward computes the layer output for training. The returned
	// tensor comes from the shared scratch pool and is recycled by
	// Sequential.Backward.
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
	// Backward consumes the gradient w.r.t. the layer's output,
	// accumulates parameter gradients, releases the layer's forward
	// caches, and returns the gradient w.r.t. the layer's input.
	Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error)
	// Infer computes the layer output without touching training caches.
	// It is safe for concurrent use. The result may come from the shared
	// scratch pool; callers that are done with it may hand it back via
	// tensor.PutScratch. Infer may return its input unchanged (identity
	// layers); callers must not assume a fresh tensor.
	Infer(x *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer

	// acts holds the outputs of the last training Forward, in layer
	// order, so Backward can recycle them once no backward pass needs
	// them anymore.
	acts []*tensor.Tensor
	// params caches the flattened parameter list (layers are fixed after
	// construction), keeping Params() allocation-free in training loops.
	params []*Param
	// plan is the inference path's stages, fused conv blocks included.
	plan []stage

	// Dispatch counters: full-network inference passes per compute path,
	// surfaced per backend by the serving layer's /metricsz.
	f32Infers   atomic.Uint64
	quantInfers atomic.Uint64
}

// NewSequential builds a sequential network and plans its inference
// stages (planInference); the layers must not change afterwards.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers, plan: planInference(layers)}
}

// Forward runs all layers in order for training. Outputs are scratch
// tensors owned by the network: the next Backward call recycles every
// intermediate INCLUDING the returned output, so callers must finish
// consuming the result (e.g. compute the loss gradient) before calling
// Backward.
func (s *Sequential) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	s.acts = s.acts[:0]
	cur := x
	for i, l := range s.Layers {
		y, err := l.Forward(cur)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d forward: %w", i, err)
		}
		if y != cur {
			s.acts = append(s.acts, y)
		}
		cur = y
	}
	return cur, nil
}

// Backward runs all layers in reverse, then recycles the activations of
// the preceding Forward and every intermediate gradient. The caller's
// loss gradient is left untouched; the returned input gradient is a
// scratch tensor the caller may recycle with tensor.PutScratch.
func (s *Sequential) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	cur := grad
	for i := len(s.Layers) - 1; i >= 0; i-- {
		g, err := s.Layers[i].Backward(cur)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d backward: %w", i, err)
		}
		if cur != grad {
			tensor.PutScratch(cur)
		}
		cur = g
	}
	for _, a := range s.acts {
		tensor.PutScratch(a)
	}
	s.acts = s.acts[:0]
	return cur, nil
}

// Infer runs the network through its stateless inference path, one
// stage of the plan NewSequential built at a time: each
// Conv2D → LeakyReLU → MaxPool2D(2) block runs as one fused conv pass,
// bit-identical to running the layers in turn. Each intermediate is
// recycled as soon as the next stage has consumed it. It is safe for
// concurrent use on one network (nothing may mutate the parameters
// concurrently). The caller's input is never recycled; the returned
// output is a scratch tensor the caller may hand back via
// tensor.PutScratch when done.
func (s *Sequential) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	s.f32Infers.Add(1)
	return s.infer(x, false)
}

// Params collects all trainable parameters (cached; do not mutate the
// returned slice).
func (s *Sequential) Params() []*Param {
	if s.params == nil {
		for _, l := range s.Layers {
			s.params = append(s.params, l.Params()...)
		}
	}
	return s.params
}

// ZeroGrads clears every parameter gradient.
func (s *Sequential) ZeroGrads() {
	for _, p := range s.Params() {
		p.Grad.Zero()
	}
}
