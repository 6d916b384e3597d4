package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// The matrix-multiply entry points below validate their operands and
// hand every problem to the one packed kernel (pack.go). Its contract:
// the work is partitioned ONLY across independent output elements — by
// rows or by columns, whichever output dimension is larger, never along
// the shared dimension — and every output element accumulates its
// products in the same order as the reference triple loop (the shared
// inner dimension is always walked 0..k-1 with a single accumulator).
// Parallelism, packing and register blocking therefore change which
// elements are computed when, but never the floating-point result:
// optimized and reference kernels are bit-identical.
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

// serialWork reports whether m independent units of a flops-sized
// problem run on the calling goroutine. Callers test it before building
// the closure parallelRows takes, so small and single-P multiplies — a
// convolution's per-sample GEMMs among them — allocate nothing.
func serialWork(m, flops int) bool {
	return flops < parallelThreshold || m <= 1 || runtime.GOMAXPROCS(0) <= 1
}

// parallelRows runs kernel over [0, m) units, splitting the range
// across GOMAXPROCS workers when the problem is worth it.
func parallelRows(m, flops int, kernel func(r0, r1 int)) {
	if serialWork(m, flops) {
		kernel(0, m)
		return
	}
	workers := min(runtime.GOMAXPROCS(0), m)
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
// overlap A or B.
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
	matMulPacked(dst, a, b, m, n, k, false, false)
	return nil
}

// MatMulTransAInto computes C = Aᵀ·B into dst, which must be m×n and must
// not overlap A or B.
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
	matMulPacked(dst, a, b, m, n, k, true, false)
	return nil
}

// MatMulTransBInto computes C = A·Bᵀ into dst, which must be m×n and must
// not overlap A or B.
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
	matMulPacked(dst, a, b, m, n, k, false, true)
	return nil
}
