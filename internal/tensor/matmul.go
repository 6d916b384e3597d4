package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// The matrix-multiply kernels below share one contract: the work is
// partitioned ONLY across independent output elements — by rows in the
// streaming kernels here, and by rows or by columns in the packed kernel
// (pack.go splits whichever output dimension is larger), never along the
// shared dimension — and every output element accumulates its products
// in the same order as the reference triple loop (the shared inner
// dimension is always walked 0..k-1 with a single accumulator).
// Parallelism and register blocking therefore change which elements are
// computed when, but never the floating-point result: optimized and
// reference kernels are bit-identical.
//
// The historical kernels skipped multiplications where the A element was
// zero. On dense training data that branch mispredicts once per multiply
// and saves nothing, so it is gone; because every accumulator starts at
// +0 and x + (±0*b) == x in round-to-nearest for every finite partial sum
// x the kernels can produce, removing the skip does not change results
// either (see TestZeroSkipRemovalBitIdentical).

// parallelThreshold is the flop count below which kernels run
// single-threaded: under it, goroutine startup costs more than the math.
const parallelThreshold = 1 << 16

// parallelRows runs kernel over [0, m) output rows, splitting the range
// across GOMAXPROCS workers when the problem is worth it.
func parallelRows(m, flops int, kernel func(r0, r1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if flops < parallelThreshold || workers <= 1 || m <= 1 {
		kernel(0, m)
		return
	}
	if workers > m {
		workers = m
	}
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r0 := w * chunk
		r1 := r0 + chunk
		if r1 > m {
			r1 = m
		}
		if r0 >= r1 {
			break
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			kernel(r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

// MatMulInto computes C = A·B into dst, which must be m×n and must not
// overlap A or B. The inner loops stream rows of B with four output rows
// blocked in registers, and rows of the output are distributed across
// GOMAXPROCS workers for large problems.
func MatMulInto(dst, a, b *Tensor) error {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return fmt.Errorf("tensor: MatMul needs 2-D operands, got %v × %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMul inner dims differ: %v × %v", a.Shape, b.Shape)
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		return fmt.Errorf("tensor: MatMul dst shape %v, want [%d %d]", dst.Shape, m, n)
	}
	statGEMMCalls.Add(1)
	if usePacked(m, n, k) {
		matMulPacked(dst, a, b, m, n, k, false, false)
		return nil
	}
	parallelRows(m, m*n*k, func(r0, r1 int) {
		seg := dst.Data[r0*n : r1*n]
		for i := range seg {
			seg[i] = 0
		}
		i := r0
		for ; i+4 <= r1; i += 4 {
			a0 := a.Data[i*k : (i+1)*k]
			a1 := a.Data[(i+1)*k : (i+2)*k]
			a2 := a.Data[(i+2)*k : (i+3)*k]
			a3 := a.Data[(i+3)*k : (i+4)*k]
			c0 := dst.Data[i*n : (i+1)*n]
			c1 := dst.Data[(i+1)*n : (i+2)*n]
			c2 := dst.Data[(i+2)*n : (i+3)*n]
			c3 := dst.Data[(i+3)*n : (i+4)*n]
			for p := 0; p < k; p++ {
				av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
				bp := b.Data[p*n : (p+1)*n]
				for j, bv := range bp {
					c0[j] += av0 * bv
					c1[j] += av1 * bv
					c2[j] += av2 * bv
					c3[j] += av3 * bv
				}
			}
		}
		for ; i < r1; i++ {
			ai := a.Data[i*k : (i+1)*k]
			ci := dst.Data[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := ai[p]
				bp := b.Data[p*n : (p+1)*n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	})
	return nil
}

// MatMulTransAInto computes C = Aᵀ·B into dst, which must be m×n and must
// not overlap A or B. The shared dimension stays the outer loop (as in
// the reference kernel) so B rows stream sequentially; output rows are
// partitioned across workers with four blocked in registers.
func MatMulTransAInto(dst, a, b *Tensor) error {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return fmt.Errorf("tensor: MatMulTransA needs 2-D operands, got %v × %v", a.Shape, b.Shape)
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMulTransA outer dims differ: %v × %v", a.Shape, b.Shape)
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		return fmt.Errorf("tensor: MatMulTransA dst shape %v, want [%d %d]", dst.Shape, m, n)
	}
	statGEMMCalls.Add(1)
	if usePacked(m, n, k) {
		matMulPacked(dst, a, b, m, n, k, true, false)
		return nil
	}
	parallelRows(m, m*n*k, func(r0, r1 int) {
		seg := dst.Data[r0*n : r1*n]
		for i := range seg {
			seg[i] = 0
		}
		for p := 0; p < k; p++ {
			ap := a.Data[p*m : (p+1)*m]
			bp := b.Data[p*n : (p+1)*n]
			i := r0
			for ; i+4 <= r1; i += 4 {
				av0, av1, av2, av3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
				c0 := dst.Data[i*n : (i+1)*n]
				c1 := dst.Data[(i+1)*n : (i+2)*n]
				c2 := dst.Data[(i+2)*n : (i+3)*n]
				c3 := dst.Data[(i+3)*n : (i+4)*n]
				for j, bv := range bp {
					c0[j] += av0 * bv
					c1[j] += av1 * bv
					c2[j] += av2 * bv
					c3[j] += av3 * bv
				}
			}
			for ; i < r1; i++ {
				av := ap[i]
				ci := dst.Data[i*n : (i+1)*n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	})
	return nil
}

// MatMulTransBInto computes C = A·Bᵀ into dst, which must be m×n and must
// not overlap A or B. Every output element is an independent dot product,
// so rows are partitioned across workers and four columns are computed
// per pass with accumulators held in registers.
func MatMulTransBInto(dst, a, b *Tensor) error {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return fmt.Errorf("tensor: MatMulTransB needs 2-D operands, got %v × %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMulTransB inner dims differ: %v × %v", a.Shape, b.Shape)
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		return fmt.Errorf("tensor: MatMulTransB dst shape %v, want [%d %d]", dst.Shape, m, n)
	}
	statGEMMCalls.Add(1)
	if usePacked(m, n, k) {
		matMulPacked(dst, a, b, m, n, k, false, true)
		return nil
	}
	parallelRows(m, m*n*k, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ai := a.Data[i*k : (i+1)*k]
			ci := dst.Data[i*n : (i+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b0 := b.Data[j*k : (j+1)*k]
				b1 := b.Data[(j+1)*k : (j+2)*k]
				b2 := b.Data[(j+2)*k : (j+3)*k]
				b3 := b.Data[(j+3)*k : (j+4)*k]
				var s0, s1, s2, s3 float32
				for p, av := range ai {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
			}
			for ; j < n; j++ {
				bj := b.Data[j*k : (j+1)*k]
				var sum float32
				for p, av := range ai {
					sum += av * bj[p]
				}
				ci[j] = sum
			}
		}
	})
	return nil
}

// MatMulTransBFoldInto computes C = A·Bᵀ into dst like MatMulTransBInto,
// but with the shared dimension split into segments of segLen elements
// and a separate accumulator per segment, folded together in segment
// order. This reproduces — bit for bit — the float ordering of computing
// A·Bᵀ over each segment separately and summing the partial results,
// which is how a per-sample backward pass accumulates a batch's weight
// gradient. A (m×K) and B (n×K) must share K, K must be a multiple of
// segLen, and dst (m×n) must not overlap A or B.
func MatMulTransBFoldInto(dst, a, b *Tensor, segLen int) error {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return fmt.Errorf("tensor: MatMulTransBFold needs 2-D operands, got %v × %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMulTransBFold inner dims differ: %v × %v", a.Shape, b.Shape)
	}
	if segLen <= 0 || k%segLen != 0 {
		return fmt.Errorf("tensor: MatMulTransBFold segment length %d must divide inner dim %d", segLen, k)
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		return fmt.Errorf("tensor: MatMulTransBFold dst shape %v, want [%d %d]", dst.Shape, m, n)
	}
	statGEMMCalls.Add(1)
	parallelRows(m, m*n*k, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ai := a.Data[i*k : (i+1)*k]
			ci := dst.Data[i*n : (i+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b0 := b.Data[j*k : (j+1)*k]
				b1 := b.Data[(j+1)*k : (j+2)*k]
				b2 := b.Data[(j+2)*k : (j+3)*k]
				b3 := b.Data[(j+3)*k : (j+4)*k]
				var t0, t1, t2, t3 float32
				for off := 0; off < k; off += segLen {
					var s0, s1, s2, s3 float32
					for p := off; p < off+segLen; p++ {
						av := ai[p]
						s0 += av * b0[p]
						s1 += av * b1[p]
						s2 += av * b2[p]
						s3 += av * b3[p]
					}
					t0 += s0
					t1 += s1
					t2 += s2
					t3 += s3
				}
				ci[j], ci[j+1], ci[j+2], ci[j+3] = t0, t1, t2, t3
			}
			for ; j < n; j++ {
				bj := b.Data[j*k : (j+1)*k]
				var total float32
				for off := 0; off < k; off += segLen {
					var sum float32
					for p := off; p < off+segLen; p++ {
						sum += ai[p] * bj[p]
					}
					total += sum
				}
				ci[j] = total
			}
		}
	})
	return nil
}
