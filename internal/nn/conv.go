package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"nbhd/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors, implemented with
// im2col. In training, the whole batch unrolls into ONE (Cin*K*K,
// N*outH*outW) matrix and Forward is a single GEMM against the weight
// matrix; Backward's segmented-fold weight gradient reads that matrix
// back. im2col, col2im, and the output scatter fan across workers per
// sample; all scratch comes from the shared tensor pool and is released
// when Backward completes, so nothing im2col-sized survives the training
// step. Infer needs no such cache: it runs im2col and the GEMM one
// sample at a time, straight into the sample's slice of the output.
//
// Bit-identity: each output element's dot product walks the Cin*K*K
// (forward) or OutChannels (input-gradient) axis in the same order as the
// per-sample reference, and the weight gradient uses the segmented-fold
// GEMM so per-sample partial sums accumulate in sample order — exactly
// the float ordering of the historical per-sample loop.
type Conv2D struct {
	InChannels, OutChannels int
	KernelSize, Stride, Pad int

	weight *Param // (OutChannels, InChannels*K*K)
	bias   *Param // (OutChannels)

	// qw holds the int8 weight copy for the quantized inference path
	// (empty until PrepareQuantized).
	qw quantWeights

	// Training cache: the batched im2col matrix (released to the scratch
	// pool in Backward) and the dims Backward needs. No reference to the
	// input batch is retained.
	cols          *tensor.Tensor // (Cin*K*K, N*outH*outW)
	inN, inH, inW int
	outH, outW    int
}

// convDims carries one pass's geometry so the inference path can share
// the im2col/scatter kernels without touching the training cache.
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

// Forward computes the convolution for a batch (N, Cin, H, W) as one
// batched im2col + GEMM, caching the im2col matrix for Backward.
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
	cols := tensor.GetScratch(c.InChannels*k*k, d.n*d.outH*d.outW)
	c.im2colBatch(x, cols, d)
	gemm := tensor.GetScratch(c.OutChannels, d.n*d.outH*d.outW)
	if err := tensor.MatMulInto(gemm, c.weight.Value, cols); err != nil {
		tensor.PutScratch(cols)
		tensor.PutScratch(gemm)
		return nil, fmt.Errorf("nn: conv forward: %w", err)
	}
	out := tensor.GetScratch(d.n, c.OutChannels, d.outH, d.outW)
	c.scatterOutput(gemm, out, d)
	tensor.PutScratch(gemm)
	c.cols = cols
	c.inN, c.inH, c.inW = d.n, d.h, d.w
	c.outH, c.outW = d.outH, d.outW
	return out, nil
}

// Infer computes the convolution without touching the training cache; it
// is safe for concurrent use and releases all scratch before returning.
//
// Samples fan across workers, and each worker unrolls and multiplies one
// sample at a time: its im2col scratch is one sample's (Cin*K*K,
// outH*outW) matrix, and the GEMM writes straight into that sample's
// NCHW slice of the output, where the bias is added in place. Every
// output element is the same dot product, in the same k order, as in
// the batched Forward, so the two paths agree bit for bit.
func (c *Conv2D) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	d, err := c.checkInput(x)
	if err != nil {
		return nil, err
	}
	k := c.KernelSize
	oHW := d.outH * d.outW
	inPer := c.InChannels * d.h * d.w
	outPer := c.OutChannels * oHW
	one := d
	one.n = 1
	out := tensor.GetScratch(d.n, c.OutChannels, d.outH, d.outW)
	var mu sync.Mutex
	var firstErr error
	parallelSamples(d.n, len(out.Data), func(s0, s1 int) {
		cols := tensor.GetScratch(c.InChannels*k*k, oHW)
		defer tensor.PutScratch(cols)
		dst := &tensor.Tensor{Shape: []int{c.OutChannels, oHW}}
		for s := s0; s < s1; s++ {
			im2colInto(x.Data[s*inPer:(s+1)*inPer], cols.Data, c.InChannels, k, c.Stride, c.Pad, one)
			dst.Data = out.Data[s*outPer : (s+1)*outPer]
			if err := tensor.MatMulInto(dst, c.weight.Value, cols); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			for oc, bv := range c.bias.Value.Data {
				row := dst.Data[oc*oHW : (oc+1)*oHW]
				for i := range row {
					row[i] += bv
				}
			}
		}
	})
	if firstErr != nil {
		tensor.PutScratch(out)
		return nil, fmt.Errorf("nn: conv infer: %w", firstErr)
	}
	return out, nil
}

// im2colBatch unrolls every sample's receptive fields into the batched
// (Cin*K*K, N*outH*outW) matrix: row r holds kernel-position r, sample
// s's columns occupy the [s*outH*outW, (s+1)*outH*outW) block of each
// row. Every element is written (padding positions get explicit zeros),
// so the destination may be dirty scratch. Samples fan across workers.
func (c *Conv2D) im2colBatch(x, col *tensor.Tensor, d convDims) {
	im2colInto(x.Data, col.Data, c.InChannels, c.KernelSize, c.Stride, c.Pad, d)
}

// im2colInto is the element-type-generic im2col core shared by the f32
// training/inference path and the int8 quantized path (where unrolling
// the already-quantized batch moves 4x less memory than f32 would).
func im2colInto[T int8 | float32](xData, colData []T, inC, k, stride, pad int, d convDims) {
	oHW := d.outH * d.outW
	total := d.n * oHW
	chStride := d.h * d.w
	parallelSamples(d.n, len(colData), func(s0, s1 int) {
		for s := s0; s < s1; s++ {
			base := s * inC * chStride
			row := 0
			for ci := 0; ci < inC; ci++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						dst := colData[row*total+s*oHW : row*total+(s+1)*oHW]
						// The valid ox range for this kernel column is the
						// same on every row, so the edge handling hoists out
						// of the inner loop: zero the out-of-image margins,
						// then move the interior as one copy (stride 1) or a
						// branch-free strided gather.
						oxLo, oxHi := validRange(d.outW, d.w, stride, pad, kx)
						idx := 0
						for oy := 0; oy < d.outH; oy++ {
							iy := oy*stride - pad + ky
							if iy < 0 || iy >= d.h {
								clearRow(dst[idx : idx+d.outW])
								idx += d.outW
								continue
							}
							srcRow := base + ci*chStride + iy*d.w
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
	})
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

// scatterOutput relayouts the GEMM result (OutC, N*outH*outW) into NCHW
// and adds the per-channel bias, writing every destination element.
func (c *Conv2D) scatterOutput(gemm, out *tensor.Tensor, d convDims) {
	oHW := d.outH * d.outW
	total := d.n * oHW
	parallelSamples(d.n, len(out.Data), func(s0, s1 int) {
		for s := s0; s < s1; s++ {
			for oc := 0; oc < c.OutChannels; oc++ {
				src := gemm.Data[oc*total+s*oHW : oc*total+(s+1)*oHW]
				dst := out.Data[(s*c.OutChannels+oc)*oHW : (s*c.OutChannels+oc+1)*oHW]
				bv := c.bias.Value.Data[oc]
				for i, v := range src {
					dst[i] = v + bv
				}
			}
		}
	})
}

// gatherGrad relayouts an NCHW output gradient into the batched
// (OutC, N*outH*outW) layout the backward GEMMs consume.
func (c *Conv2D) gatherGrad(gradOut, gmat *tensor.Tensor, d convDims) {
	oHW := d.outH * d.outW
	total := d.n * oHW
	parallelSamples(d.n, len(gmat.Data), func(s0, s1 int) {
		for s := s0; s < s1; s++ {
			for oc := 0; oc < c.OutChannels; oc++ {
				src := gradOut.Data[(s*c.OutChannels+oc)*oHW : (s*c.OutChannels+oc+1)*oHW]
				copy(gmat.Data[oc*total+s*oHW:oc*total+(s+1)*oHW], src)
			}
		}
	})
}

// Backward accumulates weight/bias gradients, returns the input
// gradient, and releases the forward caches back to the scratch pool —
// after Backward nothing im2col-sized stays alive on the layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if c.cols == nil {
		return nil, fmt.Errorf("nn: conv backward before forward")
	}
	d := convDims{n: c.inN, h: c.inH, w: c.inW, outH: c.outH, outW: c.outW}
	if len(gradOut.Shape) != 4 || gradOut.Shape[0] != d.n || gradOut.Shape[1] != c.OutChannels || gradOut.Shape[2] != d.outH || gradOut.Shape[3] != d.outW {
		return nil, fmt.Errorf("nn: conv backward got grad shape %v, want %v", gradOut.Shape, []int{d.n, c.OutChannels, d.outH, d.outW})
	}
	k := c.KernelSize
	oHW := d.outH * d.outW
	total := d.n * oHW

	gmat := tensor.GetScratch(c.OutChannels, total)
	c.gatherGrad(gradOut, gmat, d)

	// dW += g·colᵀ, folded per sample so the accumulation order matches
	// the per-sample reference bit for bit.
	dw := tensor.GetScratch(c.OutChannels, c.InChannels*k*k)
	if err := tensor.MatMulTransBFoldInto(dw, gmat, c.cols, oHW); err != nil {
		tensor.PutScratch(gmat)
		tensor.PutScratch(dw)
		return nil, fmt.Errorf("nn: conv backward dW: %w", err)
	}
	if err := c.weight.Grad.AddScaled(dw, 1); err != nil {
		tensor.PutScratch(gmat)
		tensor.PutScratch(dw)
		return nil, err
	}
	tensor.PutScratch(dw)

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

	// dcol = Wᵀ·g for the whole batch at once. The forward cols were
	// fully consumed by the dW fold above, so the buffer is reused as the
	// destination.
	dcol := c.cols
	if err := tensor.MatMulTransAInto(dcol, c.weight.Value, gmat); err != nil {
		tensor.PutScratch(gmat)
		return nil, fmt.Errorf("nn: conv backward dcol: %w", err)
	}
	tensor.PutScratch(gmat)

	gradIn := tensor.GetScratch(d.n, c.InChannels, d.h, d.w)
	gradIn.Zero()
	c.col2imBatch(dcol, gradIn, d)
	tensor.PutScratch(c.cols)
	c.cols = nil
	return gradIn, nil
}

// col2imBatch scatter-adds the batched column-gradient matrix back into
// image layout, fanning samples across workers.
func (c *Conv2D) col2imBatch(dcol, gradIn *tensor.Tensor, d convDims) {
	k := c.KernelSize
	oHW := d.outH * d.outW
	total := d.n * oHW
	chStride := d.h * d.w
	parallelSamples(d.n, len(dcol.Data), func(s0, s1 int) {
		for s := s0; s < s1; s++ {
			base := s * c.InChannels * chStride
			row := 0
			for ci := 0; ci < c.InChannels; ci++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						src := dcol.Data[row*total+s*oHW : row*total+(s+1)*oHW]
						oxLo, oxHi := validRange(d.outW, d.w, c.Stride, c.Pad, kx)
						idx := 0
						for oy := 0; oy < d.outH; oy++ {
							iy := oy*c.Stride - c.Pad + ky
							if iy < 0 || iy >= d.h {
								idx += d.outW
								continue
							}
							dstRow := base + ci*chStride + iy*d.w
							if c.Stride == 1 {
								off := dstRow - c.Pad + kx
								for ox := oxLo; ox < oxHi; ox++ {
									gradIn.Data[off+ox] += src[idx+ox]
								}
							} else {
								for ox := oxLo; ox < oxHi; ox++ {
									gradIn.Data[dstRow+ox*c.Stride-c.Pad+kx] += src[idx+ox]
								}
							}
							idx += d.outW
						}
						row++
					}
				}
			}
		}
	})
}

// Params returns the weight and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }
