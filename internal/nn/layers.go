package nn

import (
	"fmt"
	"math"
	"math/rand"

	"nbhd/internal/tensor"
)

// MaxPool2D is a max pooling layer over NCHW tensors.
type MaxPool2D struct {
	Size, Stride int

	// Training cache: the chosen input index per output element plus the
	// input geometry (no reference to the input tensor is retained).
	argmax []int
	inDims [4]int
}

// NewMaxPool2D constructs a pooling layer; stride 0 defaults to the
// window size (non-overlapping pooling).
func NewMaxPool2D(size, stride int) (*MaxPool2D, error) {
	if size <= 0 {
		return nil, fmt.Errorf("nn: pool size must be positive, got %d", size)
	}
	if stride == 0 {
		stride = size
	}
	if stride < 0 {
		return nil, fmt.Errorf("nn: pool stride must be positive, got %d", stride)
	}
	return &MaxPool2D{Size: size, Stride: stride}, nil
}

// outDims validates the input and derives the pooled geometry.
func (p *MaxPool2D) outDims(x *tensor.Tensor) (n, c, outH, outW int, err error) {
	if len(x.Shape) != 4 {
		return 0, 0, 0, 0, fmt.Errorf("nn: pool expects NCHW input, got %v", x.Shape)
	}
	n, c = x.Shape[0], x.Shape[1]
	h, w := x.Shape[2], x.Shape[3]
	outH = (h-p.Size)/p.Stride + 1
	outW = (w-p.Size)/p.Stride + 1
	if h < p.Size || w < p.Size {
		return 0, 0, 0, 0, fmt.Errorf("nn: pool output degenerate for %dx%d (size=%d stride=%d)", h, w, p.Size, p.Stride)
	}
	return n, c, outH, outW, nil
}

// Forward computes max pooling and records the argmax for Backward.
func (p *MaxPool2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	n, c, outH, outW, err := p.outDims(x)
	if err != nil {
		return nil, err
	}
	h, w := x.Shape[2], x.Shape[3]
	out := tensor.GetScratch(n, c, outH, outW)
	elems := out.NumElems()
	if cap(p.argmax) >= elems {
		p.argmax = p.argmax[:elems]
	} else {
		p.argmax = make([]int, elems)
	}
	p.inDims = [4]int{n, c, h, w}
	oi := 0
	for s := 0; s < n; s++ {
		for ci := 0; ci < c; ci++ {
			chBase := (s*c + ci) * h * w
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := -1
					for ky := 0; ky < p.Size; ky++ {
						iy := oy*p.Stride + ky
						for kx := 0; kx < p.Size; kx++ {
							ix := ox*p.Stride + kx
							idx := chBase + iy*w + ix
							if v := x.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					out.Data[oi] = best
					p.argmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out, nil
}

// Infer computes max pooling without recording argmax; it is stateless
// and safe for concurrent use. A 2×2 stride-2 pool runs the fused conv
// epilogue's branch-free kernel (firstMax), which keeps the generic
// loop's results; behind a Conv2D, Sequential fuses the pool into the
// conv instead.
func (p *MaxPool2D) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	n, c, outH, outW, err := p.outDims(x)
	if err != nil {
		return nil, err
	}
	h, w := x.Shape[2], x.Shape[3]
	out := tensor.GetScratch(n, c, outH, outW)
	oi := 0
	for ch := 0; ch < n*c; ch++ {
		chBase := ch * h * w
		for oy := 0; oy < outH; oy++ {
			if p.Size == 2 && p.Stride == 2 {
				top := x.Data[chBase+2*oy*w : chBase+2*oy*w+2*outW]
				bot := x.Data[chBase+(2*oy+1)*w : chBase+(2*oy+1)*w+2*outW]
				for ox := range out.Data[oi : oi+outW] {
					best := firstMax(top[2*ox], top[2*ox+1])
					best = firstMax(best, bot[2*ox])
					out.Data[oi+ox] = firstMax(best, bot[2*ox+1])
				}
				oi += outW
				continue
			}
			for ox := 0; ox < outW; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < p.Size; ky++ {
					rowBase := chBase + (oy*p.Stride+ky)*w + ox*p.Stride
					for kx := 0; kx < p.Size; kx++ {
						if v := x.Data[rowBase+kx]; v > best {
							best = v
						}
					}
				}
				out.Data[oi] = best
				oi++
			}
		}
	}
	return out, nil
}

// Backward routes gradients to the argmax positions.
func (p *MaxPool2D) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if p.argmax == nil {
		return nil, fmt.Errorf("nn: pool backward before forward")
	}
	if gradOut.NumElems() != len(p.argmax) {
		return nil, fmt.Errorf("nn: pool backward grad has %d elems, want %d", gradOut.NumElems(), len(p.argmax))
	}
	gradIn := tensor.GetScratch(p.inDims[0], p.inDims[1], p.inDims[2], p.inDims[3])
	gradIn.Zero()
	for i, src := range p.argmax {
		gradIn.Data[src] += gradOut.Data[i]
	}
	return gradIn, nil
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// LeakyReLU is max(x, alpha*x); alpha 0 gives plain ReLU.
type LeakyReLU struct {
	Alpha float32
	input *tensor.Tensor
}

// NewLeakyReLU constructs the activation. Alpha must be in [0,1).
func NewLeakyReLU(alpha float32) (*LeakyReLU, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("nn: leaky relu alpha %f outside [0,1)", alpha)
	}
	return &LeakyReLU{Alpha: alpha}, nil
}

// apply writes the activation of x into a fresh scratch tensor.
func (r *LeakyReLU) apply(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.GetScratch(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = leaky(v, r.Alpha)
	}
	return out
}

// Forward applies the activation elementwise, caching the input for
// Backward.
func (r *LeakyReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	r.input = x
	return r.apply(x), nil
}

// Infer applies the activation without caching; safe for concurrent use.
func (r *LeakyReLU) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	return r.apply(x), nil
}

// Backward scales gradients by the activation's slope at the cached
// input, then releases the cache.
func (r *LeakyReLU) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if r.input == nil {
		return nil, fmt.Errorf("nn: relu backward before forward")
	}
	if !gradOut.SameShape(r.input) {
		return nil, fmt.Errorf("nn: relu backward shape %v, want %v", gradOut.Shape, r.input.Shape)
	}
	gradIn := tensor.GetScratch(gradOut.Shape...)
	for i, g := range gradOut.Data {
		if r.input.Data[i] < 0 {
			g *= r.Alpha
		}
		gradIn.Data[i] = g
	}
	r.input = nil
	return gradIn, nil
}

// Params returns nil; activations have no parameters.
func (r *LeakyReLU) Params() []*Param { return nil }

// Linear is a fully connected layer over (N, In) tensors.
type Linear struct {
	In, Out int
	weight  *Param // (In, Out)
	bias    *Param // (Out)

	// qw holds the int8 weight copy for the quantized inference path
	// (empty until PrepareQuantized).
	qw quantWeights

	// Training cache: a 2-D view (shared backing array, no copy) of the
	// forward input, cleared in Backward.
	inView tensor.Tensor
	input  *tensor.Tensor
}

// NewLinear constructs a fully connected layer with He initialization.
func NewLinear(in, out int, rng *rand.Rand) (*Linear, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: linear dims must be positive, got %d -> %d", in, out)
	}
	w, err := newParam(fmt.Sprintf("linear%dx%d_w", in, out), in, out)
	if err != nil {
		return nil, err
	}
	if err := w.Value.HeInit(in, rng); err != nil {
		return nil, err
	}
	b, err := newParam(fmt.Sprintf("linear%dx%d_b", in, out), out)
	if err != nil {
		return nil, err
	}
	return &Linear{In: in, Out: out, weight: w, bias: b}, nil
}

// compute runs x·W + b into a fresh scratch tensor through the given 2-D
// view of x (higher-rank inputs flatten to (N, In) without copying).
func (l *Linear) compute(flat *tensor.Tensor) (*tensor.Tensor, error) {
	n := flat.Shape[0]
	out := tensor.GetScratch(n, l.Out)
	if err := tensor.MatMulInto(out, flat, l.weight.Value); err != nil {
		tensor.PutScratch(out)
		return nil, fmt.Errorf("nn: linear forward: %w", err)
	}
	for i := 0; i < n; i++ {
		row := out.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += l.bias.Value.Data[j]
		}
	}
	return out, nil
}

// flatShape validates and returns the flattened (N, In) geometry.
func (l *Linear) flatShape(x *tensor.Tensor) (n, per int, err error) {
	n = x.Shape[0]
	per = x.NumElems() / n
	if per != l.In {
		return 0, 0, fmt.Errorf("nn: linear expects %d features, got %d", l.In, per)
	}
	return n, per, nil
}

// Forward computes x·W + b. Inputs of higher rank are flattened to
// (N, In).
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	n, per, err := l.flatShape(x)
	if err != nil {
		return nil, err
	}
	l.inView.Shape = append(l.inView.Shape[:0], n, per)
	l.inView.Data = x.Data
	l.input = &l.inView
	return l.compute(l.input)
}

// Infer computes x·W + b without caching; safe for concurrent use.
func (l *Linear) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	n, per, err := l.flatShape(x)
	if err != nil {
		return nil, err
	}
	flat := tensor.Tensor{Shape: []int{n, per}, Data: x.Data}
	return l.compute(&flat)
}

// Backward accumulates parameter gradients, returns input gradients, and
// releases the cached input view.
func (l *Linear) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if l.input == nil {
		return nil, fmt.Errorf("nn: linear backward before forward")
	}
	n := l.input.Shape[0]
	if len(gradOut.Shape) != 2 || gradOut.Shape[0] != n || gradOut.Shape[1] != l.Out {
		return nil, fmt.Errorf("nn: linear backward grad shape %v, want [%d %d]", gradOut.Shape, n, l.Out)
	}
	// dW += xᵀ·g
	dw := tensor.GetScratch(l.In, l.Out)
	if err := tensor.MatMulTransAInto(dw, l.input, gradOut); err != nil {
		tensor.PutScratch(dw)
		return nil, err
	}
	if err := l.weight.Grad.AddScaled(dw, 1); err != nil {
		tensor.PutScratch(dw)
		return nil, err
	}
	tensor.PutScratch(dw)
	// db += column sums of g.
	for i := 0; i < n; i++ {
		row := gradOut.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			l.bias.Grad.Data[j] += row[j]
		}
	}
	// dx = g·Wᵀ
	gradIn := tensor.GetScratch(n, l.In)
	if err := tensor.MatMulTransBInto(gradIn, gradOut, l.weight.Value); err != nil {
		tensor.PutScratch(gradIn)
		return nil, err
	}
	l.input = nil
	l.inView.Data = nil
	return gradIn, nil
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.weight, l.bias} }
