package nn

import (
	"fmt"

	"nbhd/internal/tensor"
)

// Quantized inference: a w8a8 dynamic scheme. Weights are quantized once
// per tensor (PrepareQuantized, after training or loading); activations
// are quantized per batch with a scale computed on the fly, multiplied
// through an exact-int32 int8 GEMM, and come back to float32 before the
// next layer — so shape-only layers (pooling, activations) run their
// normal f32 path unchanged and need no quantized variant. Biases stay
// f32 and are added after dequantization. This is NOT bit-identical to
// the f32 path; the accuracy envelope is pinned by the experiment-level
// epsilon harness (see docs/QUANTIZATION.md).

// QuantizedLayer is implemented by layers that own weights and offer an
// int8 inference path.
type QuantizedLayer interface {
	// PrepareQuantized (re)quantizes the layer's weights. Call after
	// training or weight loading, before the first InferQuantized; it
	// mutates the layer and must not race with inference.
	PrepareQuantized() error
	// InferQuantized is the int8 counterpart of Layer.Infer: stateless,
	// concurrency-safe once prepared, output from the shared scratch pool.
	InferQuantized(x *tensor.Tensor) (*tensor.Tensor, error)
}

// PrepareQuantized quantizes the weights of every layer that supports
// int8 inference. Must be called before InferQuantized and after any
// weight update; it must not race with concurrent inference.
func (s *Sequential) PrepareQuantized() error {
	for i, l := range s.Layers {
		if ql, ok := l.(QuantizedLayer); ok {
			if err := ql.PrepareQuantized(); err != nil {
				return fmt.Errorf("nn: layer %d prepare quantized: %w", i, err)
			}
		}
	}
	return nil
}

// InferQuantized runs the network like Infer, but routes every layer
// with an int8 path through it (others keep their f32 Infer). The same
// recycling and concurrency contract as Infer applies. PrepareQuantized
// must have been called after the last weight change.
func (s *Sequential) InferQuantized(x *tensor.Tensor) (*tensor.Tensor, error) {
	s.quantInfers.Add(1)
	cur := x
	for i, l := range s.Layers {
		var y *tensor.Tensor
		var err error
		if ql, ok := l.(QuantizedLayer); ok {
			y, err = ql.InferQuantized(cur)
		} else {
			y, err = l.Infer(cur)
		}
		if err != nil {
			if cur != x {
				tensor.PutScratch(cur)
			}
			return nil, fmt.Errorf("nn: layer %d infer quantized: %w", i, err)
		}
		if y != cur && cur != x {
			tensor.PutScratch(cur)
		}
		cur = y
	}
	return cur, nil
}

// InferCounts reports how many full-network inference passes ran on the
// f32 path vs the quantized path — the dispatch counters the serving
// layer surfaces per backend in /metricsz.
func (s *Sequential) InferCounts() (f32, quantized uint64) {
	return s.f32Infers.Load(), s.quantInfers.Load()
}

// quantWeights is the shared weight-side state for quantized layers.
type quantWeights struct {
	qweight tensor.QTensor
}

// prepare quantizes w (any 2-D weight matrix) per-tensor.
func (q *quantWeights) prepare(w *tensor.Tensor) error {
	if len(q.qweight.Data) != len(w.Data) {
		q.qweight.Data = make([]int8, len(w.Data))
	}
	return tensor.QuantizeInto(&q.qweight, w)
}

func (q *quantWeights) ready() bool { return len(q.qweight.Data) > 0 }

// PrepareQuantized quantizes the convolution weights per-tensor.
func (c *Conv2D) PrepareQuantized() error { return c.qw.prepare(c.weight.Value) }

// InferQuantized runs the convolution on the int8 path: the batch is
// quantized once with a per-batch scale, and convPass unrolls each
// sample with the int8 im2col (4x less scratch traffic than the f32
// one) and multiplies it against the prequantized weights with exact
// int32 accumulation, adding the f32 bias in place.
func (c *Conv2D) InferQuantized(x *tensor.Tensor) (*tensor.Tensor, error) {
	if !c.qw.ready() {
		return nil, fmt.Errorf("nn: conv InferQuantized before PrepareQuantized")
	}
	d, err := c.checkInput(x)
	if err != nil {
		return nil, err
	}
	scale := tensor.ScaleFor(x.Data)
	qx := tensor.GetScratchI8(len(x.Data))
	if err := tensor.QuantizeSlice(qx, x.Data, scale); err != nil {
		tensor.PutScratchI8(qx)
		return nil, fmt.Errorf("nn: conv quantize input: %w", err)
	}
	out := tensor.GetScratch(d.n, c.OutChannels, d.outH, d.outW)
	err = convPass(c, qx, d, out, nil, c.i8Workers(d, scale))
	tensor.PutScratchI8(qx)
	if err != nil {
		tensor.PutScratch(out)
		return nil, fmt.Errorf("nn: conv quantized gemm: %w", err)
	}
	return out, nil
}

// i8GEMM is one worker's int8 operand headers for convPass, re-pointed
// at every sample; the columns carry the batch's activation scale.
type i8GEMM struct {
	weight *tensor.QTensor
	dst    tensor.Tensor
	cols   tensor.QTensor
	shapes [4]int
	buf    []int8
}

// i8Workers returns convPass's factory for int8 workers.
func (c *Conv2D) i8Workers(d convDims, scale float32) func() convGEMM[int8] {
	return func() convGEMM[int8] {
		g := &i8GEMM{weight: &c.qw.qweight, shapes: c.gemmShapes(d)}
		g.dst.Shape, g.cols.Shape, g.cols.Scale = g.shapes[:2], g.shapes[2:], scale
		return g
	}
}

func (g *i8GEMM) scratch(n int) []int8 {
	g.buf = tensor.GetScratchI8(n)
	return g.buf
}

func (g *i8GEMM) mul(dst []float32, cols []int8) error {
	g.dst.Data, g.cols.Data = dst, cols
	return tensor.QMatMulInto(&g.dst, g.weight, &g.cols)
}

func (g *i8GEMM) release() { tensor.PutScratchI8(g.buf) }

// PrepareQuantized quantizes the linear weights per-tensor.
func (l *Linear) PrepareQuantized() error { return l.qw.prepare(l.weight.Value) }

// InferQuantized computes x·W + b with int8 operands: per-batch input
// scale, exact int32 accumulation, f32 bias.
func (l *Linear) InferQuantized(x *tensor.Tensor) (*tensor.Tensor, error) {
	if !l.qw.ready() {
		return nil, fmt.Errorf("nn: linear InferQuantized before PrepareQuantized")
	}
	n, per, err := l.flatShape(x)
	if err != nil {
		return nil, err
	}
	scale := tensor.ScaleFor(x.Data)
	qx := tensor.GetScratchI8(len(x.Data))
	if err := tensor.QuantizeSlice(qx, x.Data, scale); err != nil {
		tensor.PutScratchI8(qx)
		return nil, fmt.Errorf("nn: linear quantize input: %w", err)
	}
	qxT := tensor.QTensor{Shape: []int{n, per}, Data: qx, Scale: scale}
	out := tensor.GetScratch(n, l.Out)
	if err := tensor.QMatMulInto(out, &qxT, &l.qw.qweight); err != nil {
		tensor.PutScratchI8(qx)
		tensor.PutScratch(out)
		return nil, fmt.Errorf("nn: linear quantized gemm: %w", err)
	}
	tensor.PutScratchI8(qx)
	for i := 0; i < n; i++ {
		row := out.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += l.bias.Value.Data[j]
		}
	}
	return out, nil
}
