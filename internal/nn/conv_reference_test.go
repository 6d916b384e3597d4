package nn

import (
	"math/rand"
	"testing"

	"nbhd/internal/tensor"
)

// refConv reimplements the seed Conv2D: per-sample im2col, per-sample
// reference GEMMs, per-sample gradient accumulation. It is the
// bit-identity oracle for the batched implementation.
type refConv struct {
	inC, outC, k, stride, pad int
	weight, bias              *tensor.Tensor
}

func (r *refConv) outSize(in int) int { return (in+2*r.pad-r.k)/r.stride + 1 }

func (r *refConv) im2col(x *tensor.Tensor, sample, h, w, outH, outW int) *tensor.Tensor {
	col := tensor.MustNew(r.inC*r.k*r.k, outH*outW)
	chStride := h * w
	base := sample * r.inC * chStride
	row := 0
	for ci := 0; ci < r.inC; ci++ {
		for ky := 0; ky < r.k; ky++ {
			for kx := 0; kx < r.k; kx++ {
				dst := col.Data[row*outH*outW : (row+1)*outH*outW]
				idx := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*r.stride - r.pad + ky
					if iy < 0 || iy >= h {
						idx += outW
						continue
					}
					srcRow := base + ci*chStride + iy*w
					for ox := 0; ox < outW; ox++ {
						ix := ox*r.stride - r.pad + kx
						if ix >= 0 && ix < w {
							dst[idx] = x.Data[srcRow+ix]
						}
						idx++
					}
				}
				row++
			}
		}
	}
	return col
}

// refMatMul is the seed serial kernel including the zero-skip branch.
func refMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := tensor.MustNew(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j := range bp {
				ci[j] += av * bp[j]
			}
		}
	}
	return c
}

func refMatMulTransA(a, b *tensor.Tensor) *tensor.Tensor {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := tensor.MustNew(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j := range bp {
				ci[j] += av * bp[j]
			}
		}
	}
	return c
}

func refMatMulTransB(a, b *tensor.Tensor) *tensor.Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	c := tensor.MustNew(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var sum float32
			for p := range ai {
				sum += ai[p] * bj[p]
			}
			ci[j] = sum
		}
	}
	return c
}

// forward mirrors the seed Conv2D.Forward, returning the output and the
// per-sample im2col matrices.
func (r *refConv) forward(x *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH, outW := r.outSize(h), r.outSize(w)
	out := tensor.MustNew(n, r.outC, outH, outW)
	cols := make([]*tensor.Tensor, n)
	for s := 0; s < n; s++ {
		col := r.im2col(x, s, h, w, outH, outW)
		cols[s] = col
		prod := refMatMul(r.weight, col)
		dst := out.Data[s*r.outC*outH*outW : (s+1)*r.outC*outH*outW]
		copy(dst, prod.Data)
		for oc := 0; oc < r.outC; oc++ {
			bv := r.bias.Data[oc]
			seg := dst[oc*outH*outW : (oc+1)*outH*outW]
			for i := range seg {
				seg[i] += bv
			}
		}
	}
	return out, cols
}

// backward mirrors the seed Conv2D.Backward, returning dW, db, and the
// input gradient.
func (r *refConv) backward(x, gradOut *tensor.Tensor, cols []*tensor.Tensor) (dw, db, gradIn *tensor.Tensor) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH, outW := r.outSize(h), r.outSize(w)
	dw = tensor.MustNew(r.outC, r.inC*r.k*r.k)
	db = tensor.MustNew(r.outC)
	gradIn = tensor.MustNew(n, r.inC, h, w)
	for s := 0; s < n; s++ {
		gseg := gradOut.Data[s*r.outC*outH*outW : (s+1)*r.outC*outH*outW]
		gmat, err := tensor.FromSlice(gseg, r.outC, outH*outW)
		if err != nil {
			panic(err)
		}
		sdw := refMatMulTransB(gmat, cols[s])
		for i := range dw.Data {
			dw.Data[i] += sdw.Data[i]
		}
		for oc := 0; oc < r.outC; oc++ {
			var sum float32
			for _, v := range gseg[oc*outH*outW : (oc+1)*outH*outW] {
				sum += v
			}
			db.Data[oc] += sum
		}
		dcol := refMatMulTransA(r.weight, gmat)
		// col2im scatter.
		chStride := h * w
		base := s * r.inC * chStride
		row := 0
		for ci := 0; ci < r.inC; ci++ {
			for ky := 0; ky < r.k; ky++ {
				for kx := 0; kx < r.k; kx++ {
					src := dcol.Data[row*outH*outW : (row+1)*outH*outW]
					idx := 0
					for oy := 0; oy < outH; oy++ {
						iy := oy*r.stride - r.pad + ky
						if iy < 0 || iy >= h {
							idx += outW
							continue
						}
						dstRow := base + ci*chStride + iy*w
						for ox := 0; ox < outW; ox++ {
							ix := ox*r.stride - r.pad + kx
							if ix >= 0 && ix < w {
								gradIn.Data[dstRow+ix] += src[idx]
							}
							idx++
						}
					}
					row++
				}
			}
		}
	}
	return dw, db, gradIn
}

// TestConvBitIdenticalToReference drives the batched Conv2D and the
// seed-style per-sample reference over a table of odd shapes (kernel 1,
// single sample, single channel, strides, asymmetric spatial dims) and
// requires bit-identical forward outputs and gradients.
func TestConvBitIdenticalToReference(t *testing.T) {
	cases := []struct {
		name                      string
		n, inC, outC, k, s, p, hw int
		hw2                       int // width (0 = square)
	}{
		{"1x1_kernel", 2, 3, 4, 1, 1, 0, 6, 0},
		{"single_sample", 1, 2, 3, 3, 1, 1, 5, 0},
		{"single_channel", 3, 1, 1, 3, 1, 1, 7, 0},
		{"stride2", 2, 2, 4, 3, 2, 1, 9, 0},
		{"stride3_pad2", 2, 3, 2, 3, 3, 2, 10, 0},
		{"rectangular", 2, 2, 3, 3, 1, 1, 4, 11},
		{"wide_batch", 7, 2, 5, 3, 1, 1, 8, 0},
		{"kernel5", 1, 2, 2, 5, 1, 2, 8, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			conv, err := NewConv2D(tc.inC, tc.outC, tc.k, tc.s, tc.p, rng)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refConv{
				inC: tc.inC, outC: tc.outC, k: tc.k, stride: tc.s, pad: tc.p,
				weight: conv.weight.Value, bias: conv.bias.Value,
			}
			h := tc.hw
			w := tc.hw2
			if w == 0 {
				w = h
			}
			x := tensor.MustNew(tc.n, tc.inC, h, w)
			x.UniformInit(1, rng)
			// Sprinkle exact zeros to exercise the removed zero-skip path.
			for i := 0; i < len(x.Data); i += 7 {
				x.Data[i] = 0
			}

			got, err := conv.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			want, cols := ref.forward(x)
			if !got.SameShape(want) {
				t.Fatalf("forward shape %v, want %v", got.Shape, want.Shape)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("forward[%d] = %g, reference %g", i, got.Data[i], want.Data[i])
				}
			}

			gradOut := tensor.MustNew(want.Shape...)
			gradOut.UniformInit(1, rng)
			conv.weight.Grad.Zero()
			conv.bias.Grad.Zero()
			gotIn, err := conv.Backward(gradOut)
			if err != nil {
				t.Fatal(err)
			}
			dw, db, wantIn := ref.backward(x, gradOut, cols)
			for i := range dw.Data {
				if conv.weight.Grad.Data[i] != dw.Data[i] {
					t.Fatalf("dW[%d] = %g, reference %g", i, conv.weight.Grad.Data[i], dw.Data[i])
				}
			}
			for i := range db.Data {
				if conv.bias.Grad.Data[i] != db.Data[i] {
					t.Fatalf("db[%d] = %g, reference %g", i, conv.bias.Grad.Data[i], db.Data[i])
				}
			}
			for i := range wantIn.Data {
				if gotIn.Data[i] != wantIn.Data[i] {
					t.Fatalf("gradIn[%d] = %g, reference %g", i, gotIn.Data[i], wantIn.Data[i])
				}
			}
		})
	}
}
