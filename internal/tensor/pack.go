package tensor

import (
	"sync"
	"time"
)

// Cache-tiled packed GEMM: the one f32 kernel behind MatMulInto,
// MatMulTransAInto and MatMulTransBInto, whatever the shape. A and B
// panels are repacked into contiguous microkernel-order buffers sized to
// the cache blocking chosen by a one-shot runtime probe, and an MRxNR
// register-blocked microkernel walks the packed strips. Packing buffers
// cycle through a dedicated panel pool (see panelbuf.go), so
// steady-state GEMMs allocate nothing.
//
// Bit-identity discipline (the contract shared with matmul.go): every
// output element owns a single running sum that accumulates its products
// in ascending shared-dimension order. The microkernel loads that sum
// from C into a register at the start of each K block, adds the block's
// products one at a time in p order, and stores it back — the same
// floating-point op sequence as the reference triple loop, so packing
// and tiling change memory traffic but never results. Ragged tiles are
// zero-padded in the packed panels; a padded lane only ever adds ±0 to a
// +0 accumulator that is never stored, so padding is unobservable.

const (
	// gemmMR x gemmNR is the microkernel tile: gemmMR*gemmNR running
	// sums held in registers while one packed K block streams through.
	gemmMR = 4
	gemmNR = 4
)

// gemmBlocks are the cache-blocking sizes: the packed A panel is mc x kc
// (sized for L1), the packed B panel kc x nc (sized for L2).
type gemmBlocks struct{ mc, kc, nc int }

// blockCandidates are the probe's menu. mc is a multiple of gemmMR and
// nc of gemmNR so full panels have no ragged strips; kc trades K-loop
// amortization against panel footprint (mc*kc floats should sit in L1).
var blockCandidates = []gemmBlocks{
	{mc: 64, kc: 128, nc: 256},
	{mc: 32, kc: 256, nc: 256},
	{mc: 128, kc: 128, nc: 256},
	{mc: 64, kc: 256, nc: 128},
}

var (
	blockOnce   sync.Once
	chosenBlock gemmBlocks
)

// gemmBlockSizes returns the process-wide blocking, probing once. The
// probe times a small packed GEMM per candidate and keeps the fastest —
// a few milliseconds, paid on the first large multiply. Block choice
// affects speed only, never results, so a noisy probe is harmless.
func gemmBlockSizes() gemmBlocks {
	blockOnce.Do(func() {
		chosenBlock = probeBlocks()
	})
	return chosenBlock
}

// probeBlocks times one mid-sized packed multiply per candidate.
func probeBlocks() gemmBlocks {
	const probeDim = 160
	a := MustNew(probeDim, probeDim)
	b := MustNew(probeDim, probeDim)
	dst := MustNew(probeDim, probeDim)
	for i := range a.Data {
		a.Data[i] = float32(i%17) * 0.25
		b.Data[i] = float32(i%11) * 0.5
	}
	best := blockCandidates[0]
	bestTime := time.Duration(1<<63 - 1)
	for _, cand := range blockCandidates {
		// One warm-up fills the panel pool so every candidate pays the
		// same allocation cost; then time the better of two runs.
		packedSerial(dst, a, b, 0, probeDim, 0, probeDim, cand, false, false)
		elapsed := time.Duration(1<<63 - 1)
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			packedSerial(dst, a, b, 0, probeDim, 0, probeDim, cand, false, false)
			if d := time.Since(start); d < elapsed {
				elapsed = d
			}
		}
		if elapsed < bestTime {
			bestTime, best = elapsed, cand
		}
	}
	return best
}

// matMulPacked computes dst += 0-initialized A·B (with optional logical
// transposes) through the packed tiled kernel. A is m x k after transA,
// B is k x n after transB, dst is m x n and is fully overwritten.
//
// Workers split the larger output dimension, so every B panel is packed
// by exactly one worker: columns in gemmNR-aligned chunks when n > m (a
// convolution's few output channels against its many pixels), rows in
// gemmMR-aligned chunks otherwise. The rule reads the shape alone, and
// either split leaves each element's k order untouched. A problem too
// small to split runs here, before any closure is built.
func matMulPacked(dst, a, b *Tensor, m, n, k int, transA, transB bool) {
	bs := gemmBlockSizes()
	switch {
	case n > m && !serialWork((n+gemmNR-1)/gemmNR, m*n*k):
		parallelAligned(n, m*n*k, gemmNR, func(j0, j1 int) {
			packedSerial(dst, a, b, 0, m, j0, j1, bs, transA, transB)
		})
	case n <= m && !serialWork((m+gemmMR-1)/gemmMR, m*n*k):
		parallelAligned(m, m*n*k, gemmMR, func(r0, r1 int) {
			packedSerial(dst, a, b, r0, r1, 0, n, bs, transA, transB)
		})
	default:
		packedSerial(dst, a, b, 0, m, 0, n, bs, transA, transB)
	}
}

// parallelAligned is parallelRows over [0, size) with worker chunks
// rounded up to a multiple of align, so only the final worker sees a
// ragged strip edge.
func parallelAligned(size, flops, align int, kernel func(lo, hi int)) {
	parallelRows((size+align-1)/align, flops, func(c0, c1 int) {
		lo, hi := c0*align, c1*align
		if hi > size {
			hi = size
		}
		if lo < hi {
			kernel(lo, hi)
		}
	})
}

// packedSerial runs the blocked loop nest over output rows [r0, r1) and
// columns [j0, j1). Loop order is the BLIS nest: jc (N blocks) → pc (K
// blocks, ascending — the bit-identity requirement) → pack B → ic (M
// blocks) → pack A → microkernel sweep. Each call owns its packed
// panels, so concurrent workers never share pack buffers.
func packedSerial(dst, a, b *Tensor, r0, r1, j0, j1 int, bs gemmBlocks, transA, transB bool) {
	m, n := r1-r0, j1-j0
	ldc := dst.Shape[1]
	var k int
	if transA {
		k = a.Shape[0]
	} else {
		k = a.Shape[1]
	}
	for i := r0; i < r1; i++ {
		clear(dst.Data[i*ldc+j0 : i*ldc+j1])
	}
	if k == 0 {
		return
	}
	mc, kc, nc := bs.mc, bs.kc, bs.nc
	if mc > m {
		mc = roundUp(m, gemmMR)
	}
	if kc > k {
		kc = k
	}
	if nc > n {
		nc = roundUp(n, gemmNR)
	}
	apBox := getPanel(mc * kc)
	bpBox := getPanel(roundUp(nc, gemmNR) * kc)
	defer putPanel(apBox)
	defer putPanel(bpBox)
	ap, bp := apBox.buf, bpBox.buf
	for jc := j0; jc < j1; jc += nc {
		ncEff := min(nc, j1-jc)
		for pc := 0; pc < k; pc += kc {
			kcEff := min(kc, k-pc)
			if transB {
				packBTrans(bp, b, pc, kcEff, jc, ncEff)
			} else {
				packBNormal(bp, b, pc, kcEff, jc, ncEff)
			}
			for ic := r0; ic < r1; ic += mc {
				mcEff := min(mc, r1-ic)
				if transA {
					packATrans(ap, a, ic, mcEff, pc, kcEff)
				} else {
					packANormal(ap, a, ic, mcEff, pc, kcEff)
				}
				packedCompute(dst, ic, jc, ldc, ap, bp, mcEff, ncEff, kcEff)
			}
		}
	}
}

// packedCompute sweeps the microkernel over one packed A panel x packed
// B panel pair, accumulating into dst.
func packedCompute(dst *Tensor, ic, jc, ldc int, ap, bp []float32, mc, nc, kc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		cols := min(gemmNR, nc-jr)
		bstrip := bp[(jr/gemmNR)*gemmNR*kc:]
		for ir := 0; ir < mc; ir += gemmMR {
			rows := min(gemmMR, mc-ir)
			astrip := ap[(ir/gemmMR)*gemmMR*kc:]
			cbase := (ic+ir)*ldc + jc + jr
			if rows == gemmMR && cols == gemmNR {
				microKernel4x4(dst.Data[cbase:], ldc, astrip, bstrip, kc)
			} else {
				microKernelEdge(dst.Data[cbase:], ldc, astrip, bstrip, kc, rows, cols)
			}
		}
	}
}

// microKernel4x4Go is the portable register-blocked core: 16 running
// sums accumulate while one packed K block streams through. ap holds
// gemmMR A values per k step, bp gemmNR B values per k step, both
// contiguous; fixed-width slicing drops bounds checks. On amd64 the
// SSE kernel in pack_amd64.s replaces it (same op-for-op float
// sequence, so the two are bit-identical — see the property tests);
// this version remains the reference and the non-amd64 implementation.
func microKernel4x4Go(c []float32, ldc int, ap, bp []float32, kc int) {
	c0 := c[0*ldc : 0*ldc+4 : 0*ldc+4]
	c1 := c[1*ldc : 1*ldc+4 : 1*ldc+4]
	c2 := c[2*ldc : 2*ldc+4 : 2*ldc+4]
	c3 := c[3*ldc : 3*ldc+4 : 3*ldc+4]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	c20, c21, c22, c23 := c2[0], c2[1], c2[2], c2[3]
	c30, c31, c32, c33 := c3[0], c3[1], c3[2], c3[3]
	ap = ap[: 4*kc : 4*kc]
	bp = bp[: 4*kc : 4*kc]
	for p := 0; p < kc; p++ {
		a := ap[4*p : 4*p+4 : 4*p+4]
		bv := bp[4*p : 4*p+4 : 4*p+4]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		a0 := a[0]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		a1 := a[1]
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a2 := a[2]
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		a3 := a[3]
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
	c2[0], c2[1], c2[2], c2[3] = c20, c21, c22, c23
	c3[0], c3[1], c3[2], c3[3] = c30, c31, c32, c33
}

// microKernelEdge handles ragged tiles (rows < gemmMR or cols < gemmNR)
// with the full microkernel on a local 4x4 tile: valid lanes carry their
// running sums from C and are stored back; padded lanes run on the
// panels' zero padding and are dropped.
func microKernelEdge(c []float32, ldc int, ap, bp []float32, kc, rows, cols int) {
	var tile [gemmMR * gemmNR]float32
	for r := 0; r < rows; r++ {
		copy(tile[r*gemmNR:r*gemmNR+cols], c[r*ldc:r*ldc+cols])
	}
	microKernel4x4(tile[:], gemmNR, ap, bp, kc)
	for r := 0; r < rows; r++ {
		copy(c[r*ldc:r*ldc+cols], tile[r*gemmNR:r*gemmNR+cols])
	}
}

// packANormal packs rows [i0,i0+mc) x cols [p0,p0+kc) of row-major A
// (lda = A.Shape[1]) into gemmMR-row strips: strip s holds rows
// i0+s*MR.., laid out k-major so the microkernel reads gemmMR contiguous
// A values per k step. Ragged final strips pad with zeros.
func packANormal(dst []float32, a *Tensor, i0, mc, p0, kc int) {
	lda := a.Shape[1]
	di := 0
	for ir := 0; ir < mc; ir += gemmMR {
		rows := min(gemmMR, mc-ir)
		for r := 0; r < rows; r++ {
			src := a.Data[(i0+ir+r)*lda+p0 : (i0+ir+r)*lda+p0+kc]
			d := di + r
			for p, v := range src {
				dst[d+p*gemmMR] = v
			}
		}
		for r := rows; r < gemmMR; r++ {
			d := di + r
			for p := 0; p < kc; p++ {
				dst[d+p*gemmMR] = 0
			}
		}
		di += gemmMR * kc
	}
}

// packATrans packs the same logical panel when A is stored transposed
// (k x m, logical A[i][p] = a.Data[p*m+i]): each k step reads gemmMR
// contiguous elements of a stored row — the transpose happens during
// packing, not in the inner loop.
func packATrans(dst []float32, a *Tensor, i0, mc, p0, kc int) {
	lda := a.Shape[1]
	di := 0
	for ir := 0; ir < mc; ir += gemmMR {
		rows := min(gemmMR, mc-ir)
		for p := 0; p < kc; p++ {
			src := a.Data[(p0+p)*lda+i0+ir : (p0+p)*lda+i0+ir+rows]
			d := di + p*gemmMR
			for r, v := range src {
				dst[d+r] = v
			}
			for r := rows; r < gemmMR; r++ {
				dst[d+r] = 0
			}
		}
		di += gemmMR * kc
	}
}

// packBNormal packs rows [p0,p0+kc) x cols [j0,j0+nc) of row-major B
// (ldb = B.Shape[1]) into gemmNR-column strips, k-major. It streams
// each source row once, front to back, dropping each gemmNR run into
// its strip with one fixed-size copy; a ragged final strip pads with
// zeros.
func packBNormal(dst []float32, b *Tensor, p0, kc, j0, nc int) {
	ldb := b.Shape[1]
	full := nc / gemmNR * gemmNR
	stripLen := gemmNR * kc
	for p := 0; p < kc; p++ {
		src := b.Data[(p0+p)*ldb+j0 : (p0+p)*ldb+j0+nc]
		packBRow(dst[p*gemmNR:], src[:full], stripLen)
		if full < nc {
			var tail [gemmNR]float32
			copy(tail[:], src[full:])
			*(*[gemmNR]float32)(dst[full*kc+p*gemmNR:]) = tail
		}
	}
}

// packBRow copies src, a multiple of gemmNR long, into consecutive
// strips stripLen apart. It stays out of line: inlined into
// packBNormal, the loop's counters spill to the stack and the copy
// measured slower.
//
//go:noinline
func packBRow(dst, src []float32, stripLen int) {
	for d := 0; len(src) >= gemmNR; d += stripLen {
		*(*[gemmNR]float32)(dst[d:]) = [gemmNR]float32(src)
		src = src[gemmNR:]
	}
}

// packBTrans packs the same logical panel when B is stored transposed
// (n x k, logical B[p][j] = b.Data[j*k+p]): stored rows are contiguous
// in k, so each packed column reads one contiguous run.
func packBTrans(dst []float32, b *Tensor, p0, kc, j0, nc int) {
	ldb := b.Shape[1]
	di := 0
	for jr := 0; jr < nc; jr += gemmNR {
		cols := min(gemmNR, nc-jr)
		for jj := 0; jj < cols; jj++ {
			src := b.Data[(j0+jr+jj)*ldb+p0 : (j0+jr+jj)*ldb+p0+kc]
			d := di + jj
			for p, v := range src {
				dst[d+p*gemmNR] = v
			}
		}
		for jj := cols; jj < gemmNR; jj++ {
			d := di + jj
			for p := 0; p < kc; p++ {
				dst[d+p*gemmNR] = 0
			}
		}
		di += gemmNR * kc
	}
}

func roundUp(v, to int) int { return (v + to - 1) / to * to }
