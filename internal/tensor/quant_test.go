package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refQMatMul is the exact-integer oracle for the packed int8 GEMM: a
// naive triple loop with an int32 accumulator and the same single
// float32(acc)*scale rounding on output. Integer sums are exact, so the
// packed kernel must match it bit for bit.
func refQMatMul(a, b *QTensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := MustNew(m, n)
	scale := a.Scale * b.Scale
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(a.Data[i*k+p]) * int32(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(acc) * scale
		}
	}
	return c
}

func randQ(rng *rand.Rand, m, n int) *QTensor {
	q := &QTensor{Shape: []int{m, n}, Data: make([]int8, m*n)}
	for i := range q.Data {
		q.Data[i] = int8(rng.Intn(255) - 127)
	}
	q.Scale = float32(rng.Float64()) + 0.001
	return q
}

func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := MustNew(37, 19)
	for i := range src.Data {
		src.Data[i] = float32(rng.NormFloat64()) * 3
	}
	q := &QTensor{Data: make([]int8, 37*19)}
	if err := QuantizeInto(q, src); err != nil {
		t.Fatal(err)
	}
	// Symmetric round-to-nearest: per-element error is at most scale/2.
	tol := q.Scale/2 + 1e-7
	for i := range src.Data {
		back := q.Scale * float32(q.Data[i])
		if diff := float64(src.Data[i] - back); math.Abs(diff) > float64(tol) {
			t.Fatalf("element %d: %g -> %g, err %g > %g", i, src.Data[i], back, diff, tol)
		}
	}
}

func TestQuantizeExactValues(t *testing.T) {
	src := &Tensor{Shape: []int{5}, Data: []float32{0, 127, -127, 63.5, -63.4}}
	q := &QTensor{Data: make([]int8, 5)}
	if err := QuantizeInto(q, src); err != nil {
		t.Fatal(err)
	}
	if q.Scale != 1 {
		t.Fatalf("scale = %g, want 1 (maxAbs=127)", q.Scale)
	}
	// Round half away from zero: 63.5 -> 64; -63.4 -> -63.
	want := []int8{0, 127, -127, 64, -63}
	for i, w := range want {
		if q.Data[i] != w {
			t.Fatalf("q[%d] = %d, want %d", i, q.Data[i], w)
		}
	}

	// All-zero input: scale defaults to 1, everything quantizes to 0.
	zero := MustNew(3)
	qz := &QTensor{Data: make([]int8, 3)}
	if err := QuantizeInto(qz, zero); err != nil {
		t.Fatal(err)
	}
	if qz.Scale != 1 || qz.Data[0] != 0 {
		t.Fatalf("zero tensor: scale %g data %v", qz.Scale, qz.Data)
	}

	// Values beyond maxAbs can't arise from ScaleFor, but the clamp must
	// hold for any externally supplied scale.
	var clamped [2]int8
	quantizeSlice(clamped[:], []float32{1e6, -1e6}, 1)
	if clamped[0] != QMax || clamped[1] != -QMax {
		t.Fatalf("clamp = %v, want [%d %d]", clamped, QMax, -QMax)
	}
}

func TestQMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := [][3]int{
		{1, 1, 1}, {1, 5, 3}, {5, 1, 3}, {3, 3, 1},
		{4, 4, 4}, {7, 9, 5}, {16, 16, 16}, {13, 31, 17},
		{33, 65, 7}, {64, 48, 72}, {5, 129, 2}, {129, 3, 129},
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := randQ(rng, m, k)
		b := randQ(rng, k, n)
		want := refQMatMul(a, b)
		got := MustNew(m, n)
		got.Fill(99)
		if err := QMatMulInto(got, a, b); err != nil {
			t.Fatalf("QMatMulInto %dx%dx%d: %v", m, n, k, err)
		}
		assertBitIdentical(t, fmt.Sprintf("qmatmul %dx%dx%d", m, n, k), got, want)
	}
}

func TestQMatMulShapeErrors(t *testing.T) {
	a := &QTensor{Shape: []int{2, 3}, Data: make([]int8, 6), Scale: 1}
	b := &QTensor{Shape: []int{4, 2}, Data: make([]int8, 8), Scale: 1} // inner mismatch
	dst := MustNew(2, 2)
	if err := QMatMulInto(dst, a, b); err == nil {
		t.Fatal("inner-dim mismatch not rejected")
	}
	b = &QTensor{Shape: []int{3, 5}, Data: make([]int8, 15), Scale: 1}
	if err := QMatMulInto(dst, a, b); err == nil {
		t.Fatal("dst shape mismatch not rejected")
	}
}

// TestQMicroKernelAsmMatchesGo pins the PMADDWD assembly kernel to the
// portable one on identical packed panels: exact integer sums plus the
// same convert-and-scale, so outputs must be bit-equal.
func TestQMicroKernelAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, kp := range []int{1, 2, 3, 7, 64, 200} {
		ap := make([]int16, gemmMR*2*kp)
		bp := make([]int16, gemmNR*2*kp)
		for i := range ap {
			ap[i] = int16(rng.Intn(255) - 127)
		}
		for i := range bp {
			bp[i] = int16(rng.Intn(255) - 127)
		}
		const ldc = 7
		cGo := MustNew(gemmMR, ldc)
		cAsm := MustNew(gemmMR, ldc)
		scale := float32(0.0123)
		qMicroKernel4x4Go(cGo.Data, ldc, ap, bp, kp, scale)
		qMicroKernel4x4(cAsm.Data, ldc, ap, bp, kp, scale)
		for r := 0; r < gemmMR; r++ {
			for j := 0; j < gemmNR; j++ {
				if cGo.Data[r*ldc+j] != cAsm.Data[r*ldc+j] {
					t.Fatalf("kp=%d [%d][%d]: asm %x, go %x", kp, r, j, cAsm.Data[r*ldc+j], cGo.Data[r*ldc+j])
				}
			}
		}
	}
}

// TestSlicePoolConcurrentUse mirrors TestPoolConcurrentUse for the typed
// int8/int32 scratch pools: concurrent workers must never observe each
// other's writes in a buffer they own.
func TestSlicePoolConcurrentUse(t *testing.T) {
	var p8 SlicePool[int8]
	var p32 SlicePool[int32]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := p8.Get(64)
				b := p32.Get(64)
				for j := range a {
					a[j] = int8(w)
					b[j] = int32(w) << 8
				}
				for j := range a {
					if a[j] != int8(w) || b[j] != int32(w)<<8 {
						t.Errorf("worker %d saw foreign write", w)
						return
					}
				}
				p8.Put(a)
				p32.Put(b)
			}
		}(w)
	}
	wg.Wait()
}

func TestSlicePoolReuseAndSizing(t *testing.T) {
	var p SlicePool[int32]
	a := p.Get(10)
	if len(a) != 10 || cap(a) != 1024 {
		t.Fatalf("Get(10): len %d cap %d, want 10/1024", len(a), cap(a))
	}
	a[0] = 7
	p.Put(a)
	b := p.Get(1000) // same bucket: must reuse
	if cap(b) != 1024 {
		t.Fatalf("Get(1000): cap %d, want 1024", cap(b))
	}
	p.Put(b)
	p.Put(nil) // no-op
	if got := p.Get(0); len(got) != 0 {
		t.Fatalf("Get(0): len %d", len(got))
	}
}
