package nn

import (
	"fmt"
	"math/rand"

	"nbhd/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors, implemented with
// im2col one sample at a time. Forward, Infer and InferQuantized share
// one per-sample loop (convPass): samples fan across workers, each
// sample's receptive fields unroll into a (Cin*K*K, outH*outW) matrix,
// and one GEMM multiplies the weights by it straight into the sample's
// NCHW slice of the output, where the bias is added in place. Forward
// keeps those matrices, sample-major, for Backward; Infer and
// InferQuantized unroll into per-worker scratch. Backward is per sample
// too: each sample's weight gradient goes into its own slot, and its
// column gradient overwrites the sample's kept matrix before col2im
// scatters it back. All scratch comes from the shared tensor pool and
// is released when Backward completes, so nothing im2col-sized survives
// the training step.
//
// Bit-identity: each output element's dot product walks the Cin*K*K
// (forward) or OutChannels (input-gradient) axis in the same order as the
// per-sample reference, and the weight gradient is the per-sample
// partials, each summed from +0 in ascending pixel order, added to a +0
// total in sample order — exactly the float ordering of the historical
// per-sample loop.
type Conv2D struct {
	InChannels, OutChannels int
	KernelSize, Stride, Pad int

	weight *Param // (OutChannels, InChannels*K*K)
	bias   *Param // (OutChannels)

	// qw holds the int8 weight copy for the quantized inference path
	// (empty until PrepareQuantized).
	qw quantWeights

	// Training cache: the kept im2col matrices (released to the scratch
	// pool in Backward) and the geometry Backward needs. No reference to
	// the input batch is retained.
	cols *tensor.Tensor // (N, Cin*K*K, outH*outW)
	dims convDims
}

// convDims carries one pass's geometry.
type convDims struct {
	n, h, w, outH, outW int
}

// NewConv2D constructs a convolution with He initialization.
func NewConv2D(inC, outC, kernel, stride, pad int, rng *rand.Rand) (*Conv2D, error) {
	if inC <= 0 || outC <= 0 {
		return nil, fmt.Errorf("nn: conv channels must be positive, got %d -> %d", inC, outC)
	}
	if kernel <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: conv kernel/stride/pad invalid: k=%d s=%d p=%d", kernel, stride, pad)
	}
	w, err := newParam(fmt.Sprintf("conv%dx%d_w", inC, outC), outC, inC*kernel*kernel)
	if err != nil {
		return nil, err
	}
	if err := w.Value.HeInit(inC*kernel*kernel, rng); err != nil {
		return nil, err
	}
	b, err := newParam(fmt.Sprintf("conv%dx%d_b", inC, outC), outC)
	if err != nil {
		return nil, err
	}
	return &Conv2D{
		InChannels:  inC,
		OutChannels: outC,
		KernelSize:  kernel,
		Stride:      stride,
		Pad:         pad,
		weight:      w,
		bias:        b,
	}, nil
}

// OutSize returns the spatial output size for an input size.
func (c *Conv2D) OutSize(in int) int {
	return (in+2*c.Pad-c.KernelSize)/c.Stride + 1
}

// checkInput validates an NCHW input batch and derives the geometry.
func (c *Conv2D) checkInput(x *tensor.Tensor) (convDims, error) {
	if len(x.Shape) != 4 {
		return convDims{}, fmt.Errorf("nn: conv expects NCHW input, got shape %v", x.Shape)
	}
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.InChannels {
		return convDims{}, fmt.Errorf("nn: conv expects %d input channels, got %d", c.InChannels, ch)
	}
	outH, outW := c.OutSize(h), c.OutSize(w)
	if outH <= 0 || outW <= 0 {
		return convDims{}, fmt.Errorf("nn: conv output degenerate for input %dx%d (k=%d s=%d p=%d)", h, w, c.KernelSize, c.Stride, c.Pad)
	}
	return convDims{n: n, h: h, w: w, outH: outH, outW: outW}, nil
}

// convGEMM is one worker's weight multiply in convPass, for the f32
// weights or their int8 copy. Each worker builds its own, so the operand
// headers it re-points at every sample are never shared and the loop
// allocates nothing per sample.
type convGEMM[T int8 | float32] interface {
	// scratch returns n elements of pooled im2col scratch; release
	// hands it back.
	scratch(n int) []T
	// mul writes the weights times cols, one sample's (Cin*K*K,
	// outH*outW) matrix, into dst, its (OutChannels, outH*outW) output.
	mul(dst []float32, cols []T) error
	release()
}

// convPass is the one per-sample loop behind Forward, Infer and
// InferQuantized. For every sample of x it unrolls the receptive fields
// into cols — the sample's slot of kept when kept is non-nil, else the
// worker's scratch — multiplies the weights by them straight into the
// sample's slice of out, and adds the bias in place.
func convPass[T int8 | float32](c *Conv2D, x []T, d convDims, out *tensor.Tensor, kept []T, newGEMM func() convGEMM[T]) error {
	oHW := d.outH * d.outW
	colLen := c.InChannels * c.KernelSize * c.KernelSize * oHW
	inPer := c.InChannels * d.h * d.w
	outPer := c.OutChannels * oHW
	return parallelSamples(d.n, len(out.Data), func(s0, s1 int) error {
		g := newGEMM()
		defer g.release()
		var cols []T
		if kept == nil {
			cols = g.scratch(colLen)
		}
		for s := s0; s < s1; s++ {
			if kept != nil {
				cols = kept[s*colLen : (s+1)*colLen]
			}
			im2colInto(c, x[s*inPer:(s+1)*inPer], cols, d)
			dst := out.Data[s*outPer : (s+1)*outPer]
			if err := g.mul(dst, cols); err != nil {
				return err
			}
			for oc, bv := range c.bias.Value.Data {
				row := dst[oc*oHW : (oc+1)*oHW]
				for i := range row {
					row[i] += bv
				}
			}
		}
		return nil
	})
}

// gemmShapes returns one sample's GEMM dims: its output (OutChannels,
// outH*outW), then its im2col matrix (Cin*K*K, outH*outW).
func (c *Conv2D) gemmShapes(d convDims) [4]int {
	oHW := d.outH * d.outW
	return [4]int{c.OutChannels, oHW, c.InChannels * c.KernelSize * c.KernelSize, oHW}
}

// f32GEMM is one worker's f32 operand headers, re-pointed at every
// sample: convPass's multiply, and Backward's two gradient GEMMs.
type f32GEMM struct {
	weight        *tensor.Tensor
	out, cols, dw tensor.Tensor // out is the output or its gradient
	shapes        [4]int
	buf           *tensor.Tensor
}

// newF32GEMM builds one worker's headers for geometry d.
func (c *Conv2D) newF32GEMM(d convDims) *f32GEMM {
	g := &f32GEMM{weight: c.weight.Value, shapes: c.gemmShapes(d)}
	g.out.Shape, g.cols.Shape, g.dw.Shape = g.shapes[:2], g.shapes[2:], c.weight.Value.Shape
	return g
}

func (g *f32GEMM) scratch(n int) []float32 {
	g.buf = tensor.GetScratch(n)
	return g.buf.Data
}

func (g *f32GEMM) mul(dst, cols []float32) error {
	g.out.Data, g.cols.Data = dst, cols
	return tensor.MatMulInto(&g.out, g.weight, &g.cols)
}

func (g *f32GEMM) release() {
	if g.buf != nil {
		tensor.PutScratch(g.buf)
	}
}

// backward writes one sample's weight-gradient partial gradOut·colsᵀ
// into dw, then overwrites cols, which that has consumed, with the
// column gradient Wᵀ·gradOut.
func (g *f32GEMM) backward(dw, gradOut, cols []float32) error {
	g.dw.Data, g.out.Data, g.cols.Data = dw, gradOut, cols
	if err := tensor.MatMulTransBInto(&g.dw, &g.out, &g.cols); err != nil {
		return fmt.Errorf("nn: conv backward dW: %w", err)
	}
	if err := tensor.MatMulTransAInto(&g.cols, g.weight, &g.out); err != nil {
		return fmt.Errorf("nn: conv backward dcol: %w", err)
	}
	return nil
}

// f32Workers returns convPass's factory for f32 workers.
func (c *Conv2D) f32Workers(d convDims) func() convGEMM[float32] {
	return func() convGEMM[float32] { return c.newF32GEMM(d) }
}

// Forward computes the convolution for a batch (N, Cin, H, W), keeping
// every sample's im2col matrix for Backward.
func (c *Conv2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	d, err := c.checkInput(x)
	if err != nil {
		return nil, err
	}
	if c.cols != nil {
		// A forward without an intervening backward: recycle the stale
		// cache instead of stranding it.
		tensor.PutScratch(c.cols)
		c.cols = nil
	}
	k := c.KernelSize
	cols := tensor.GetScratch(d.n, c.InChannels*k*k, d.outH*d.outW)
	out := tensor.GetScratch(d.n, c.OutChannels, d.outH, d.outW)
	if err := convPass(c, x.Data, d, out, cols.Data, c.f32Workers(d)); err != nil {
		tensor.PutScratch(cols)
		tensor.PutScratch(out)
		return nil, fmt.Errorf("nn: conv forward: %w", err)
	}
	c.cols, c.dims = cols, d
	return out, nil
}

// Infer computes the convolution without touching the training cache; it
// is safe for concurrent use and releases all scratch before returning.
// Its im2col scratch is one sample's matrix per worker, and its output
// matches Forward's bit for bit.
func (c *Conv2D) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	d, err := c.checkInput(x)
	if err != nil {
		return nil, err
	}
	out := tensor.GetScratch(d.n, c.OutChannels, d.outH, d.outW)
	if err := convPass(c, x.Data, d, out, nil, c.f32Workers(d)); err != nil {
		tensor.PutScratch(out)
		return nil, fmt.Errorf("nn: conv infer: %w", err)
	}
	return out, nil
}

// im2colInto unrolls one sample's receptive fields, x (Cin, H, W), into
// col (Cin*K*K, outH*outW): row r holds kernel position r. Every element
// is written (padding positions get explicit zeros), so col may be
// dirty scratch. It serves the f32 paths and the int8 one, where
// unrolling the already-quantized sample moves 4x less memory.
func im2colInto[T int8 | float32](c *Conv2D, xData, colData []T, d convDims) {
	k, stride, pad := c.KernelSize, c.Stride, c.Pad
	oHW := d.outH * d.outW
	chStride := d.h * d.w
	row := 0
	for ci := 0; ci < c.InChannels; ci++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := colData[row*oHW : (row+1)*oHW]
				// The valid ox range for this kernel column is the same on
				// every row, so the edge handling hoists out of the inner
				// loop: zero the out-of-image margins, then move the
				// interior as one copy (stride 1) or a branch-free strided
				// gather.
				oxLo, oxHi := validRange(d.outW, d.w, stride, pad, kx)
				idx := 0
				for oy := 0; oy < d.outH; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= d.h {
						clearRow(dst[idx : idx+d.outW])
						idx += d.outW
						continue
					}
					srcRow := ci*chStride + iy*d.w
					clearRow(dst[idx : idx+oxLo])
					if stride == 1 {
						lo := srcRow + oxLo - pad + kx
						copy(dst[idx+oxLo:idx+oxHi], xData[lo:lo+oxHi-oxLo])
					} else {
						for ox := oxLo; ox < oxHi; ox++ {
							dst[idx+ox] = xData[srcRow+ox*stride-pad+kx]
						}
					}
					clearRow(dst[idx+oxHi : idx+d.outW])
					idx += d.outW
				}
				row++
			}
		}
	}
}

// validRange returns the half-open [lo, hi) range of output columns whose
// sampled input column ox*stride - pad + kx lands inside [0, w).
func validRange(outW, w, stride, pad, kx int) (lo, hi int) {
	lo = 0
	if over := pad - kx; over > 0 {
		lo = (over + stride - 1) / stride
	}
	hi = outW
	if num := w - 1 - kx + pad; num < 0 {
		hi = 0
	} else if maxOx := num / stride; maxOx+1 < hi {
		hi = maxOx + 1
	}
	if hi < lo {
		hi = lo
	}
	if lo > outW {
		lo, hi = outW, outW
	}
	return lo, hi
}

// clearRow zeroes a slice (compiles to memclr).
func clearRow[T int8 | float32](s []T) {
	for i := range s {
		s[i] = 0
	}
}

// Backward accumulates weight/bias gradients, returns the input
// gradient, and releases the forward caches back to the scratch pool —
// after Backward nothing im2col-sized stays alive on the layer.
//
// Samples fan across workers. Each sample's weight gradient g·colᵀ goes
// into its own slot; its column gradient Wᵀ·g then overwrites the
// sample's kept matrix, which the slot has consumed, and col2im scatters
// it into the sample's slice of the input gradient. The slots are summed
// into dW afterwards, in sample order.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if c.cols == nil {
		return nil, fmt.Errorf("nn: conv backward before forward")
	}
	d := c.dims
	if len(gradOut.Shape) != 4 || gradOut.Shape[0] != d.n || gradOut.Shape[1] != c.OutChannels || gradOut.Shape[2] != d.outH || gradOut.Shape[3] != d.outW {
		return nil, fmt.Errorf("nn: conv backward got grad shape %v, want %v", gradOut.Shape, []int{d.n, c.OutChannels, d.outH, d.outW})
	}
	oHW := d.outH * d.outW
	colLen := len(c.cols.Data) / d.n
	outPer := c.OutChannels * oHW
	inPer := c.InChannels * d.h * d.w
	wLen := len(c.weight.Value.Data)

	slots := tensor.GetScratch(d.n, c.OutChannels, c.InChannels*c.KernelSize*c.KernelSize)
	gradIn := tensor.GetScratch(d.n, c.InChannels, d.h, d.w)
	gradIn.Zero()
	err := parallelSamples(d.n, len(c.cols.Data), func(s0, s1 int) error {
		g := c.newF32GEMM(d)
		for s := s0; s < s1; s++ {
			cols := c.cols.Data[s*colLen : (s+1)*colLen]
			if err := g.backward(slots.Data[s*wLen:(s+1)*wLen], gradOut.Data[s*outPer:(s+1)*outPer], cols); err != nil {
				return err
			}
			c.col2im(cols, gradIn.Data[s*inPer:(s+1)*inPer], d)
		}
		return nil
	})
	tensor.PutScratch(c.cols)
	c.cols = nil
	if err != nil {
		tensor.PutScratch(slots)
		tensor.PutScratch(gradIn)
		return nil, err
	}

	// dW += the slots summed from +0 in sample order.
	for i := range c.weight.Grad.Data {
		var sum float32
		for s := 0; s < d.n; s++ {
			sum += slots.Data[s*wLen+i]
		}
		c.weight.Grad.Data[i] += sum
	}
	tensor.PutScratch(slots)

	// db += per-channel row sums, folded in sample order.
	for oc := 0; oc < c.OutChannels; oc++ {
		for s := 0; s < d.n; s++ {
			var sum float32
			for _, v := range gradOut.Data[(s*c.OutChannels+oc)*oHW : (s*c.OutChannels+oc+1)*oHW] {
				sum += v
			}
			c.bias.Grad.Data[oc] += sum
		}
	}
	return gradIn, nil
}

// col2im scatter-adds one sample's (Cin*K*K, outH*outW) column gradient
// back into its (Cin, H, W) input gradient.
func (c *Conv2D) col2im(dcol, gradIn []float32, d convDims) {
	k := c.KernelSize
	oHW := d.outH * d.outW
	chStride := d.h * d.w
	row := 0
	for ci := 0; ci < c.InChannels; ci++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := dcol[row*oHW : (row+1)*oHW]
				oxLo, oxHi := validRange(d.outW, d.w, c.Stride, c.Pad, kx)
				idx := 0
				for oy := 0; oy < d.outH; oy++ {
					iy := oy*c.Stride - c.Pad + ky
					if iy < 0 || iy >= d.h {
						idx += d.outW
						continue
					}
					dstRow := ci*chStride + iy*d.w
					if c.Stride == 1 {
						off := dstRow - c.Pad + kx
						for ox := oxLo; ox < oxHi; ox++ {
							gradIn[off+ox] += src[idx+ox]
						}
					} else {
						for ox := oxLo; ox < oxHi; ox++ {
							gradIn[dstRow+ox*c.Stride-c.Pad+kx] += src[idx+ox]
						}
					}
					idx += d.outW
				}
				row++
			}
		}
	}
}

// Params returns the weight and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }
