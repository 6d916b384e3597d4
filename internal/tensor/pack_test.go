package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Property suite for the packed tiled GEMM: across adversarial shapes
// (every M,N,K from propertyDims — primes, powers of two, and their
// neighbors, so every ragged-tile tail arises) and all three transpose
// variants, the packed kernel must be BIT-identical to the naive
// reference, not epsilon-close. The packed core is driven directly with
// deliberately tiny cache blockings so block boundaries land mid-matrix
// in many alignments, independent of what the runtime probe picked.

var propertyDims = []int{1, 2, 3, 5, 7, 9, 13, 17, 31, 33, 63, 64, 65, 127, 128, 129}

// tinyBlocks forces many tile boundaries inside even small matrices.
var tinyBlocks = []gemmBlocks{
	{mc: gemmMR, kc: 3, nc: gemmNR},
	{mc: 8, kc: 8, nc: 8},
	{mc: 12, kc: 16, nc: 20},
	{mc: 64, kc: 128, nc: 256},
}

// packedVariant runs the packed core serially over all rows with the
// given blocking, mirroring what matMulPacked does per worker.
func packedVariant(dst, a, b *Tensor, bs gemmBlocks, transA, transB bool) {
	packedSerial(dst, a, b, 0, dst.Shape[0], 0, dst.Shape[1], bs, transA, transB)
}

func randFilled(rng *rand.Rand, dims ...int) *Tensor {
	t := MustNew(dims...)
	fillMixed(t, rng)
	return t
}

func TestPackedGEMMPropertyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// The full cross product of propertyDims³ x blockings is too slow;
	// sweep all (m,n) pairs against a rotating k (coverage of every
	// dimension value in every role) plus the full diagonal.
	type shape struct{ m, n, k int }
	var shapes []shape
	for i, m := range propertyDims {
		for j, n := range propertyDims {
			k := propertyDims[(i+j)%len(propertyDims)]
			shapes = append(shapes, shape{m, n, k})
		}
	}
	for _, d := range propertyDims {
		shapes = append(shapes, shape{d, d, d})
	}
	for _, s := range shapes {
		a := randFilled(rng, s.m, s.k)
		b := randFilled(rng, s.k, s.n)
		at := randFilled(rng, s.k, s.m)
		bt := randFilled(rng, s.n, s.k)
		got := MustNew(s.m, s.n)

		want := refMatMul(a, b)
		for _, bs := range tinyBlocks {
			got.Fill(42) // stale contents must not leak through
			packedVariant(got, a, b, bs, false, false)
			assertBitIdentical(t, fmt.Sprintf("packed %dx%dx%d blocks %+v", s.m, s.n, s.k, bs), got, want)
		}

		want = refMatMulTransA(at, b)
		for _, bs := range tinyBlocks {
			got.Fill(42)
			packedVariant(got, at, b, bs, true, false)
			assertBitIdentical(t, fmt.Sprintf("packedTransA %dx%dx%d blocks %+v", s.m, s.n, s.k, bs), got, want)
		}

		want = refMatMulTransB(a, bt)
		for _, bs := range tinyBlocks {
			got.Fill(42)
			packedVariant(got, a, bt, bs, false, true)
			assertBitIdentical(t, fmt.Sprintf("packedTransB %dx%dx%d blocks %+v", s.m, s.n, s.k, bs), got, want)
		}
	}
}

// TestPackedGEMMPublicRoutingBitIdentical checks the public entry points
// on the same adversarial dimensions: every shape must match the
// reference bit for bit. Besides the square shapes it covers wide ones
// (n >= 4m, where matMulPacked splits columns across workers, up to
// n = 4099 so chunk ends land off the gemmNR grid) and their tall
// transposes (where it splits rows), the linear head's skinny shapes
// (batch 16 or 1 against 2048 features and 6 outputs, and k of 1 and
// 6), all under 1, 2, 3 and 8 workers.
func TestPackedGEMMPublicRoutingBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(11))
	type shape struct{ m, n, k int }
	var shapes []shape
	for _, d := range propertyDims {
		for _, k := range []int{1, 7, 64, 129} {
			shapes = append(shapes, shape{d, d, k})
		}
	}
	// The wide and tall shapes must reach both worker splits, or the
	// check above says nothing about them.
	runtime.GOMAXPROCS(8)
	wide, tall := 0, 0
	for _, m := range []int{1, 4, 8, 13} {
		for _, n := range []int{4 * m, 4*m + 3, 257, 4099} {
			for _, k := range []int{33, 130} {
				shapes = append(shapes, shape{m, n, k}, shape{n, m, k})
				if worthSplitting((n+gemmNR-1)/gemmNR, m*n*k) {
					wide++
				}
				if worthSplitting((n+gemmMR-1)/gemmMR, n*m*k) {
					tall++
				}
			}
		}
	}
	if wide < 4 || tall < 4 {
		t.Fatalf("only %d wide shapes split columns and %d tall shapes split rows", wide, tall)
	}
	// The linear head's shapes, and the same outputs over k of 1 and 6.
	for _, s := range []shape{{16, 6, 2048}, {16, 2048, 6}, {2048, 6, 16}, {1, 6, 2048}} {
		shapes = append(shapes, s)
		for _, k := range []int{1, 6} {
			if k != s.k {
				shapes = append(shapes, shape{s.m, s.n, k})
			}
		}
	}
	for _, s := range shapes {
		a := randFilled(rng, s.m, s.k)
		b := randFilled(rng, s.k, s.n)
		at := randFilled(rng, s.k, s.m)
		bt := randFilled(rng, s.n, s.k)
		wantN := refMatMul(a, b)
		wantA := refMatMulTransA(at, b)
		wantB := refMatMulTransB(a, bt)
		got := MustNew(s.m, s.n)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			name := fmt.Sprintf("%dx%dx%d procs %d", s.m, s.n, s.k, procs)
			got.Fill(42)
			if err := MatMulInto(got, a, b); err != nil {
				t.Fatalf("MatMulInto %s: %v", name, err)
			}
			assertBitIdentical(t, "route MatMul "+name, got, wantN)
			got.Fill(42)
			if err := MatMulTransAInto(got, at, b); err != nil {
				t.Fatalf("MatMulTransAInto %s: %v", name, err)
			}
			assertBitIdentical(t, "route TransA "+name, got, wantA)
			got.Fill(42)
			if err := MatMulTransBInto(got, a, bt); err != nil {
				t.Fatalf("MatMulTransBInto %s: %v", name, err)
			}
			assertBitIdentical(t, "route TransB "+name, got, wantB)
		}
	}
}

// TestPackedSerialRanges drives the packed core over the output blocks
// matMulPacked's workers own — column ranges whose ends are and are not
// multiples of gemmNR, and row ranges likewise off the gemmMR grid —
// with every tiny blocking: the block must match the reference bit for
// bit, and every element outside it must keep its stale value.
func TestPackedSerialRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const m, n, k = 13, 37, 29
	a := randFilled(rng, m, k)
	b := randFilled(rng, k, n)
	at := randFilled(rng, k, m)
	bt := randFilled(rng, n, k)
	variants := []struct {
		name           string
		a, b, want     *Tensor
		transA, transB bool
	}{
		{"packed", a, b, refMatMul(a, b), false, false},
		{"packedTransA", at, b, refMatMulTransA(at, b), true, false},
		{"packedTransB", a, bt, refMatMulTransB(a, bt), false, true},
	}
	rows := [][2]int{{0, m}, {4, 12}, {1, 6}}
	cols := [][2]int{{0, n}, {0, 16}, {4, 20}, {8, n}, {3, 17}, {5, 6}, {36, n}}
	got := MustNew(m, n)
	for _, v := range variants {
		for _, bs := range tinyBlocks {
			for _, r := range rows {
				for _, c := range cols {
					got.Fill(42)
					packedSerial(got, v.a, v.b, r[0], r[1], c[0], c[1], bs, v.transA, v.transB)
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							want := float32(42)
							if i >= r[0] && i < r[1] && j >= c[0] && j < c[1] {
								want = v.want.Data[i*n+j]
							}
							if g := got.Data[i*n+j]; g != want {
								t.Fatalf("%s rows %v cols %v blocks %+v: [%d][%d] = %x, want %x", v.name, r, c, bs, i, j, g, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestPackedGEMMDegenerate covers K=0 (empty inner dimension: output
// must be all zeros, no panic) and 1xN / Mx1 panels through the packed
// core. Tensor.New rejects zero dims, so K=0 operands are built by hand.
func TestPackedGEMMDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, mn := range [][2]int{{1, 9}, {9, 1}, {1, 1}, {5, 13}} {
		m, n := mn[0], mn[1]
		a := &Tensor{Shape: []int{m, 0}, Data: nil}
		b := &Tensor{Shape: []int{0, n}, Data: nil}
		dst := randFilled(rng, m, n)
		packedVariant(dst, a, b, tinyBlocks[0], false, false)
		for i, v := range dst.Data {
			if v != 0 {
				t.Fatalf("K=0 %dx%d: dst[%d] = %v, want 0", m, n, i, v)
			}
		}
	}
	// 1xN and Mx1 with a real K: maximally ragged microkernel tiles.
	for _, s := range [][3]int{{1, 37, 11}, {37, 1, 11}, {1, 1, 129}, {2, 3, 1}} {
		m, n, k := s[0], s[1], s[2]
		a := randFilled(rng, m, k)
		b := randFilled(rng, k, n)
		want := refMatMul(a, b)
		got := MustNew(m, n)
		for _, bs := range tinyBlocks {
			got.Fill(-7)
			packedVariant(got, a, b, bs, false, false)
			assertBitIdentical(t, fmt.Sprintf("degenerate %dx%dx%d blocks %+v", m, n, k, bs), got, want)
		}
	}
}

// TestMicroKernelAsmMatchesGo pins the amd64 assembly microkernel to the
// portable Go one on identical packed inputs: same op sequence per
// element, so bit-equal outputs. On non-amd64 the two are one function
// and the test is a tautology, which is fine.
func TestMicroKernelAsmMatchesGo(t *testing.T) {
	for _, kc := range []int{1, 2, 3, 7, 64, 255} {
		ap := make([]float32, gemmMR*kc)
		bp := make([]float32, gemmNR*kc)
		for i := range ap {
			ap[i] = float32(i%13)*0.375 - 2
		}
		for i := range bp {
			bp[i] = float32(i%11)*0.4375 - 1.5
		}
		const ldc = 6 // wider than NR: strided C rows
		cGo := MustNew(gemmMR, ldc)
		rng := rand.New(rand.NewSource(int64(kc)))
		fillMixed(cGo, rng)
		cAsm := cGo.Clone()
		microKernel4x4Go(cGo.Data, ldc, ap, bp, kc)
		microKernel4x4(cAsm.Data, ldc, ap, bp, kc)
		assertBitIdentical(t, fmt.Sprintf("microkernel kc=%d", kc), cAsm, cGo)
	}
}

// FuzzPackedGEMM lets the fuzzer pick shapes and a data seed; the packed
// kernel must stay bit-identical to the reference for every corpus and
// generated input.
func FuzzPackedGEMM(f *testing.F) {
	f.Add(3, 5, 7, int64(1))
	f.Add(129, 1, 64, int64(2))
	f.Add(16, 16, 16, int64(3))
	f.Fuzz(func(t *testing.T, m, n, k int, seed int64) {
		if m < 1 || n < 1 || k < 1 || m > 130 || n > 130 || k > 130 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := randFilled(rng, m, k)
		b := randFilled(rng, k, n)
		want := refMatMul(a, b)
		got := MustNew(m, n)
		packedVariant(got, a, b, tinyBlocks[1], false, false)
		assertBitIdentical(t, fmt.Sprintf("fuzz %dx%dx%d", m, n, k), got, want)
	})
}
