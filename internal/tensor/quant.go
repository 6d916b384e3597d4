package tensor

import "fmt"

// Symmetric int8 quantization for the inference path. Values are mapped
// by a single positive scale per tensor: q = clamp(round(x/scale)) with
// scale = maxAbs/127, so zero is exactly representable and no zero-point
// arithmetic is needed in the GEMM. The int8 GEMM accumulates in int32 —
// exact integer math, so unlike the f32 kernels it has no accumulation-
// order contract — and applies scaleA*scaleB once per output element on
// the way back to float32.

// QMax is the symmetric quantization range bound: values quantize into
// [-QMax, QMax] so that +maxAbs and -maxAbs are both representable.
const QMax = 127

// QTensor is an int8-quantized tensor: Data holds q values, Scale the
// dequantization factor (x ≈ Scale * q).
type QTensor struct {
	Shape []int
	Data  []int8
	Scale float32
}

// ScaleFor returns the symmetric quantization scale for xs: maxAbs/QMax,
// or 1 when every element is zero (any scale represents all-zeros
// exactly; 1 keeps dequantization well-defined).
func ScaleFor(xs []float32) float32 {
	var maxAbs float32
	for _, x := range xs {
		a := x
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / QMax
}

// QuantizeInto quantizes src into dst (which must have the same element
// count), computing dst.Scale from src: round-to-nearest (half away from
// zero), clamped to [-QMax, QMax]. Shape is copied from src.
func QuantizeInto(dst *QTensor, src *Tensor) error {
	if len(dst.Data) != len(src.Data) {
		return fmt.Errorf("tensor: QuantizeInto size %d, want %d", len(dst.Data), len(src.Data))
	}
	dst.Shape = append(dst.Shape[:0], src.Shape...)
	dst.Scale = ScaleFor(src.Data)
	quantizeSlice(dst.Data, src.Data, dst.Scale)
	return nil
}

// QuantizeSlice quantizes src into dst with a caller-chosen scale —
// the dynamic-activation path, where the caller computes ScaleFor once
// per batch and quantizes into pooled int8 scratch.
func QuantizeSlice(dst []int8, src []float32, scale float32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("tensor: QuantizeSlice size %d, want %d", len(dst), len(src))
	}
	quantizeSlice(dst, src, scale)
	return nil
}

// quantizeSlice writes round(x/scale) clamped to the int8 range.
func quantizeSlice(dst []int8, src []float32, scale float32) {
	inv := 1 / scale
	// Round half away from zero without the float64 math.Round round
	// trip: adding ±0.5 before the truncating conversion is the same
	// rounding for every representable quotient (|x*inv| ≤ QMax + ε by
	// construction of the scale, so the addition cannot overflow int32).
	for i, x := range src {
		r := x * inv
		var q int32
		if r >= 0 {
			q = int32(r + 0.5)
		} else {
			q = int32(r - 0.5)
		}
		if q > QMax {
			q = QMax
		} else if q < -QMax {
			q = -QMax
		}
		dst[i] = int8(q)
	}
}

// QMatMulInto computes dst = (a.Scale*b.Scale) * (qa · qb) for int8
// operands a (m×k) and b (k×n) with exact int32 accumulation, writing
// float32 into dst (m×n). Both operands are repacked into int16
// pair-interleaved panels (pooled; zero-alloc in steady state) so the
// microkernel — PMADDWD on amd64, a portable mirror elsewhere — streams
// contiguous data. |acc| ≤ QMax²·k, so k must stay below ~1.3e5 to avoid
// int32 overflow; every model in this repo is orders of magnitude under.
func QMatMulInto(dst *Tensor, a, b *QTensor) error {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return fmt.Errorf("tensor: QMatMul needs 2-D operands, got %v × %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: QMatMul inner dims differ: %v × %v", a.Shape, b.Shape)
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		return fmt.Errorf("tensor: QMatMul dst shape %v, want [%d %d]", dst.Shape, m, n)
	}
	statQGEMMCalls.Add(1)
	if k == 0 {
		dst.Zero()
		return nil
	}
	scale := a.Scale * b.Scale
	kp := (k + 1) / 2 // pair count; odd k zero-pads the final pair

	// Pack all of B once (strips of gemmNR columns, pair-interleaved);
	// workers share it read-only and pack only their own A rows. A
	// problem too small to split runs here, before any closure is built.
	bpBuf := GetScratchI16(roundUp(n, gemmNR) * kp * 2)
	packQB(bpBuf, b.Data, k, n)
	if serialWork((m+gemmMR-1)/gemmMR, m*n*k) {
		qPackedRows(dst, a, bpBuf, 0, m, n, k, scale)
	} else {
		parallelAligned(m, m*n*k, gemmMR, func(r0, r1 int) {
			qPackedRows(dst, a, bpBuf, r0, r1, n, k, scale)
		})
	}
	PutScratchI16(bpBuf)
	return nil
}

// qPackedRows packs A's rows [r0, r1) and sweeps the int8 microkernel
// over them against the packed B panel bp, writing dst's rows [r0, r1).
func qPackedRows(dst *Tensor, a *QTensor, bp []int16, r0, r1, n, k int, scale float32) {
	kp := (k + 1) / 2
	apBuf := GetScratchI16(roundUp(r1-r0, gemmMR) * kp * 2)
	packQA(apBuf, a.Data, r0, r1-r0, k)
	for jr := 0; jr < n; jr += gemmNR {
		cols := min(gemmNR, n-jr)
		bstrip := bp[(jr/gemmNR)*2*gemmNR*kp:]
		for ir := r0; ir < r1; ir += gemmMR {
			rows := min(gemmMR, r1-ir)
			astrip := apBuf[((ir-r0)/gemmMR)*2*gemmMR*kp:]
			dbase := ir*n + jr
			if rows == gemmMR && cols == gemmNR {
				qMicroKernel4x4(dst.Data[dbase:], n, astrip, bstrip, kp, scale)
			} else {
				qMicroKernelEdge(dst.Data[dbase:], n, astrip, bstrip, kp, scale, rows, cols)
			}
		}
	}
	PutScratchI16(apBuf)
}

// packQA packs rows [i0,i0+mc) of row-major int8 A (width k) into
// gemmMR-row strips of int16 pairs: strip-local index p2*(MR*2) + r*2 + t
// holds a[i0+strip*MR+r][2*p2+t]. Ragged rows and the odd-k tail pad
// with zeros (exact: 0 contributes nothing to an integer sum).
func packQA(dst []int16, a []int8, i0, mc, k int) {
	kp := (k + 1) / 2
	di := 0
	for ir := 0; ir < mc; ir += gemmMR {
		rows := min(gemmMR, mc-ir)
		for r := 0; r < gemmMR; r++ {
			if r >= rows {
				for p2 := 0; p2 < kp; p2++ {
					dst[di+p2*gemmMR*2+r*2] = 0
					dst[di+p2*gemmMR*2+r*2+1] = 0
				}
				continue
			}
			row := a[(i0+ir+r)*k : (i0+ir+r)*k+k]
			for p2 := 0; p2 < kp; p2++ {
				d := di + p2*gemmMR*2 + r*2
				dst[d] = int16(row[2*p2])
				if 2*p2+1 < k {
					dst[d+1] = int16(row[2*p2+1])
				} else {
					dst[d+1] = 0
				}
			}
		}
		di += gemmMR * 2 * kp
	}
}

// packQB packs row-major int8 B (k×n) into gemmNR-column strips of int16
// pairs: strip-local index p2*(NR*2) + j*2 + t holds b[2*p2+t][j0+j].
// Row pairs are the outer loop so both source rows stream sequentially —
// with column strips outside, every strip re-walks B column-major and
// for im2col-sized matrices (n in the tens of thousands) the reads
// thrash; this ordering cut packQB's profile share roughly in half.
func packQB(dst []int16, b []int8, k, n int) {
	kp := (k + 1) / 2
	nFull := n - n%gemmNR
	stripLen := gemmNR * 2 * kp
	for p2 := 0; p2 < kp; p2++ {
		r0 := b[2*p2*n : 2*p2*n+n]
		hasR1 := 2*p2+1 < k
		var r1 []int8
		if hasR1 {
			r1 = b[(2*p2+1)*n : (2*p2+1)*n+n]
		}
		d := p2 * gemmNR * 2
		if hasR1 {
			for jr := 0; jr < nFull; jr += gemmNR {
				s0 := r0[jr : jr+4 : jr+4]
				s1 := r1[jr : jr+4 : jr+4]
				o := dst[d : d+8 : d+8]
				o[0], o[1] = int16(s0[0]), int16(s1[0])
				o[2], o[3] = int16(s0[1]), int16(s1[1])
				o[4], o[5] = int16(s0[2]), int16(s1[2])
				o[6], o[7] = int16(s0[3]), int16(s1[3])
				d += stripLen
			}
		} else {
			for jr := 0; jr < nFull; jr += gemmNR {
				s0 := r0[jr : jr+4 : jr+4]
				o := dst[d : d+8 : d+8]
				o[0], o[1] = int16(s0[0]), 0
				o[2], o[3] = int16(s0[1]), 0
				o[4], o[5] = int16(s0[2]), 0
				o[6], o[7] = int16(s0[3]), 0
				d += stripLen
			}
		}
		if nFull < n {
			o := dst[d : d+8 : d+8]
			for j := 0; j < gemmNR; j++ {
				col := nFull + j
				if col >= n {
					o[j*2], o[j*2+1] = 0, 0
					continue
				}
				o[j*2] = int16(r0[col])
				if hasR1 {
					o[j*2+1] = int16(r1[col])
				} else {
					o[j*2+1] = 0
				}
			}
		}
	}
}

// qMicroKernel4x4Go is the portable int8 microkernel: 16 int32
// accumulators over pair-interleaved int16 panels, scaled to float32 on
// store. The amd64 version (PMADDWD) computes the identical integer
// sums; integer math is exact, so they agree bit-for-bit, including the
// final float32(acc)*scale rounding.
func qMicroKernel4x4Go(dst []float32, ldc int, ap, bp []int16, kp int, scale float32) {
	var acc [gemmMR][gemmNR]int32
	qAccumulate(&acc, ap, bp, kp)
	for r := 0; r < gemmMR; r++ {
		for j := 0; j < gemmNR; j++ {
			dst[r*ldc+j] = float32(acc[r][j]) * scale
		}
	}
}

// qMicroKernelEdge handles ragged tiles: full-width integer accumulation
// over the zero-padded panels, storing only the valid lanes.
func qMicroKernelEdge(dst []float32, ldc int, ap, bp []int16, kp int, scale float32, rows, cols int) {
	var acc [gemmMR][gemmNR]int32
	qAccumulate(&acc, ap, bp, kp)
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			dst[r*ldc+j] = float32(acc[r][j]) * scale
		}
	}
}

func qAccumulate(acc *[gemmMR][gemmNR]int32, ap, bp []int16, kp int) {
	ap = ap[: kp*8 : kp*8]
	bp = bp[: kp*8 : kp*8]
	for p := 0; p < kp; p++ {
		a := ap[p*8 : p*8+8 : p*8+8]
		b := bp[p*8 : p*8+8 : p*8+8]
		for r := 0; r < gemmMR; r++ {
			ar0, ar1 := int32(a[r*2]), int32(a[r*2+1])
			acc[r][0] += ar0*int32(b[0]) + ar1*int32(b[1])
			acc[r][1] += ar0*int32(b[2]) + ar1*int32(b[3])
			acc[r][2] += ar0*int32(b[4]) + ar1*int32(b[5])
			acc[r][3] += ar0*int32(b[6]) + ar1*int32(b[7])
		}
	}
}
