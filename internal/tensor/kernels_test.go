package tensor

import (
	"math/rand"
	"testing"
)

// Reference kernels: the seed repo's serial triple loops, preserved here
// verbatim (including the zero-skip branch the optimized kernels dropped)
// as the bit-identity oracle for the blocked parallel kernels.

func refMatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := MustNew(m, n)
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

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := MustNew(m, n)
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

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	c := MustNew(m, n)
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

// fillMixed fills a tensor with a mix of random values and exact zeros so
// the bit-identity tests also cover the removed zero-skip branch.
func fillMixed(t *Tensor, rng *rand.Rand) {
	for i := range t.Data {
		switch rng.Intn(5) {
		case 0:
			t.Data[i] = 0
		default:
			t.Data[i] = float32(rng.NormFloat64())
		}
	}
}

func assertBitIdentical(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %x, want %x (values %g vs %g)",
				name, i, got.Data[i], want.Data[i], got.Data[i], want.Data[i])
		}
	}
}

// kernelShapes covers odd shapes including every dimension collapsed to
// one, non-multiples of the register block width, and a size big enough
// to cross the parallel threshold.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{5, 1, 7},
	{7, 5, 1},
	{2, 3, 2},
	{3, 3, 3},
	{4, 4, 4},
	{5, 9, 6},
	{13, 17, 11},
	{16, 27, 64},
	{33, 31, 29},
	{64, 48, 40},
	{128, 128, 128}, // crosses parallelThreshold
}

func TestMatMulBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range kernelShapes {
		a := MustNew(s.m, s.k)
		b := MustNew(s.k, s.n)
		fillMixed(a, rng)
		fillMixed(b, rng)
		want := refMatMul(a, b)
		got := MustNew(s.m, s.n)
		if err := MatMulInto(got, a, b); err != nil {
			t.Fatalf("MatMulInto %v: %v", s, err)
		}
		assertBitIdentical(t, "MatMulInto", got, want)
		// The Into form on a dirty destination must agree too.
		dst := MustNew(s.m, s.n)
		dst.Fill(42)
		if err := MatMulInto(dst, a, b); err != nil {
			t.Fatalf("MatMulInto %v: %v", s, err)
		}
		assertBitIdentical(t, "MatMulInto", dst, got)
	}
}

func TestMatMulTransABitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range kernelShapes {
		a := MustNew(s.k, s.m)
		b := MustNew(s.k, s.n)
		fillMixed(a, rng)
		fillMixed(b, rng)
		want := refMatMulTransA(a, b)
		got := MustNew(s.m, s.n)
		if err := MatMulTransAInto(got, a, b); err != nil {
			t.Fatalf("MatMulTransAInto %v: %v", s, err)
		}
		assertBitIdentical(t, "MatMulTransAInto", got, want)
		dst := MustNew(s.m, s.n)
		dst.Fill(-7)
		if err := MatMulTransAInto(dst, a, b); err != nil {
			t.Fatalf("MatMulTransAInto %v: %v", s, err)
		}
		assertBitIdentical(t, "MatMulTransAInto", dst, got)
	}
}

func TestMatMulTransBBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range kernelShapes {
		a := MustNew(s.m, s.k)
		b := MustNew(s.n, s.k)
		fillMixed(a, rng)
		fillMixed(b, rng)
		want := refMatMulTransB(a, b)
		got := MustNew(s.m, s.n)
		if err := MatMulTransBInto(got, a, b); err != nil {
			t.Fatalf("MatMulTransBInto %v: %v", s, err)
		}
		assertBitIdentical(t, "MatMulTransBInto", got, want)
		dst := MustNew(s.m, s.n)
		dst.Fill(3)
		if err := MatMulTransBInto(dst, a, b); err != nil {
			t.Fatalf("MatMulTransBInto %v: %v", s, err)
		}
		assertBitIdentical(t, "MatMulTransBInto", dst, got)
	}
}

// TestZeroSkipRemovalBitIdentical pins down the claim that dropping the
// historical `if av == 0 { continue }` branch cannot change results on
// finite data: accumulators start at +0, partial sums are never -0 (a
// negative-total sum is nonzero; exact cancellation yields +0 in
// round-to-nearest), and x + (±0·b) == x for every such x.
func TestZeroSkipRemovalBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := MustNew(16, 33)
	b := MustNew(33, 21)
	// Dense zeros on both sides, including whole zero rows/columns, and
	// negative values so ±0 products occur.
	fillMixed(a, rng)
	fillMixed(b, rng)
	for j := 0; j < 33; j++ {
		a.Data[5*33+j] = 0 // zero row of A
	}
	for j := 0; j < 21; j++ {
		b.Data[7*21+j] = 0 // zero row of B
	}
	got := MustNew(16, 21)
	if err := MatMulInto(got, a, b); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "MatMul with zeros", got, refMatMul(a, b))
}

func TestIntoValidation(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(3, 4)
	if err := MatMulInto(MustNew(2, 5), a, b); err == nil {
		t.Error("wrong dst shape accepted")
	}
	if err := MatMulInto(MustNew(8), a, b); err == nil {
		t.Error("1-D dst accepted")
	}
	if err := MatMulTransAInto(MustNew(2, 2), a, b); err == nil {
		t.Error("TransA wrong dst shape accepted")
	}
	if err := MatMulTransBInto(MustNew(2, 2), a, MustNew(4, 3)); err == nil {
		t.Error("TransB wrong dst shape accepted")
	}
}
