package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	a, err := New(2, 3, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if a.NumElems() != 24 {
		t.Errorf("NumElems = %d", a.NumElems())
	}
	if len(a.Shape) != 3 || a.Shape[0] != 2 || a.Shape[1] != 3 || a.Shape[2] != 4 {
		t.Errorf("dims = %v", a.Shape)
	}
	if _, err := New(); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := New(2, 0); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := New(-1); err == nil {
		t.Error("negative dimension accepted")
	}
}

func TestFromSlice(t *testing.T) {
	a, err := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	if a.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %f", a.At(1, 2))
	}
	if a.At(0, 0) != 1 {
		t.Errorf("At(0,0) = %f", a.At(0, 0))
	}
	if _, err := FromSlice([]float32{1, 2}, 3); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestAtSetRowMajor(t *testing.T) {
	a := MustNew(2, 3)
	a.Set(7, 1, 0)
	if a.Data[3] != 7 {
		t.Errorf("row-major layout wrong: data = %v", a.Data)
	}
	if a.At(1, 0) != 7 {
		t.Errorf("At(1,0) = %f", a.At(1, 0))
	}
}

func TestOffsetPanics(t *testing.T) {
	a := MustNew(2, 2)
	assertPanics(t, func() { a.At(0) }, "rank mismatch")
	assertPanics(t, func() { a.At(2, 0) }, "out of range")
	assertPanics(t, func() { a.At(0, -1) }, "negative index")
}

func assertPanics(t *testing.T, f func(), name string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestCloneIndependent(t *testing.T) {
	a := MustNew(2, 2)
	a.Fill(1)
	b := a.Clone()
	b.Set(5, 0, 0)
	if a.At(0, 0) != 1 {
		t.Error("clone shares storage")
	}
	if !a.SameShape(b) {
		t.Error("clone changed shape")
	}
}

func TestZeroFillScale(t *testing.T) {
	a := MustNew(3)
	a.Fill(2)
	a.Scale(1.5)
	if a.At(1) != 3 {
		t.Errorf("scale result %f", a.At(1))
	}
	a.Zero()
	if a.At(0) != 0 || a.At(2) != 0 {
		t.Error("Zero failed")
	}
}

func TestAddScaled(t *testing.T) {
	a := MustNew(2)
	a.Fill(1)
	b := MustNew(2)
	b.Fill(3)
	if err := a.AddScaled(b, 0.5); err != nil {
		t.Fatalf("AddScaled: %v", err)
	}
	if a.At(0) != 2.5 {
		t.Errorf("AddScaled result %f", a.At(0))
	}
	c := MustNew(3)
	if err := a.AddScaled(c, 1); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestL2Norm(t *testing.T) {
	a, _ := FromSlice([]float32{3, 4}, 2)
	if n := a.L2Norm(); math.Abs(n-5) > 1e-6 {
		t.Errorf("L2Norm = %f", n)
	}
}

func TestHeInit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := MustNew(1000)
	if err := a.HeInit(50, rng); err != nil {
		t.Fatalf("HeInit: %v", err)
	}
	var sum, sumSq float64
	for _, v := range a.Data {
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	mean := sum / 1000
	variance := sumSq/1000 - mean*mean
	wantVar := 2.0 / 50
	if math.Abs(mean) > 0.03 {
		t.Errorf("He mean = %f", mean)
	}
	if math.Abs(variance-wantVar) > wantVar*0.3 {
		t.Errorf("He variance = %f, want ~%f", variance, wantVar)
	}
	if err := a.HeInit(0, rng); err == nil {
		t.Error("zero fan-in accepted")
	}
}

func TestUniformInit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := MustNew(500)
	a.UniformInit(0.1, rng)
	for _, v := range a.Data {
		if v < -0.1 || v > 0.1 {
			t.Fatalf("uniform value %f outside bound", v)
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MustNew(2, 2)
	if err := MatMulInto(c, a, b); err != nil {
		t.Fatalf("MatMulInto: %v", err)
	}
	want := [][]float32{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C[%d][%d] = %f, want %f", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulValidation(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(4, 2)
	dst := MustNew(2, 2)
	if err := MatMulInto(dst, a, b); err == nil {
		t.Error("inner-dim mismatch accepted")
	}
	c := MustNew(6)
	if err := MatMulInto(dst, a, c); err == nil {
		t.Error("1-D operand accepted")
	}
}

func TestMatMulIdentity(t *testing.T) {
	n := 5
	id := MustNew(n, n)
	for i := 0; i < n; i++ {
		id.Set(1, i, i)
	}
	rng := rand.New(rand.NewSource(3))
	a := MustNew(n, n)
	a.UniformInit(1, rng)
	c := MustNew(n, n)
	if err := MatMulInto(c, a, id); err != nil {
		t.Fatalf("MatMulInto: %v", err)
	}
	for i := range a.Data {
		if math.Abs(float64(c.Data[i]-a.Data[i])) > 1e-6 {
			t.Fatal("A·I != A")
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// A problem big enough to trigger the parallel path must agree with
	// the mathematical result computed naively.
	m, k, n := 64, 48, 40
	rng := rand.New(rand.NewSource(4))
	a := MustNew(m, k)
	a.UniformInit(1, rng)
	b := MustNew(k, n)
	b.UniformInit(1, rng)
	c := MustNew(m, n)
	if err := MatMulInto(c, a, b); err != nil {
		t.Fatalf("MatMulInto: %v", err)
	}
	for trial := 0; trial < 20; trial++ {
		i, j := rng.Intn(m), rng.Intn(n)
		var want float64
		for p := 0; p < k; p++ {
			want += float64(a.At(i, p)) * float64(b.At(p, j))
		}
		if math.Abs(float64(c.At(i, j))-want) > 1e-3 {
			t.Fatalf("C[%d][%d] = %f, want %f", i, j, c.At(i, j), want)
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	// A is k×m; result should equal Aᵀ·B.
	a, _ := FromSlice([]float32{1, 2, 3, 4}, 2, 2) // [[1,2],[3,4]]
	b, _ := FromSlice([]float32{5, 6, 7, 8}, 2, 2) // [[5,6],[7,8]]
	c := MustNew(2, 2)
	if err := MatMulTransAInto(c, a, b); err != nil {
		t.Fatalf("MatMulTransAInto: %v", err)
	}
	// Aᵀ = [[1,3],[2,4]]; Aᵀ·B = [[26,30],[38,44]].
	want := [][]float32{{26, 30}, {38, 44}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C[%d][%d] = %f, want %f", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	bad := MustNew(3, 2)
	if err := MatMulTransAInto(c, a, bad); err == nil {
		t.Error("outer-dim mismatch accepted")
	}
}

func TestMatMulTransB(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b, _ := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := MustNew(2, 2)
	if err := MatMulTransBInto(c, a, b); err != nil {
		t.Fatalf("MatMulTransBInto: %v", err)
	}
	// Bᵀ = [[5,7],[6,8]]; A·Bᵀ = [[17,23],[39,53]].
	want := [][]float32{{17, 23}, {39, 53}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C[%d][%d] = %f, want %f", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	bad := MustNew(2, 3)
	if err := MatMulTransBInto(c, a, bad); err == nil {
		t.Error("inner-dim mismatch accepted")
	}
}

// Property: A·B computed via MatMulTransAInto on a transposed copy of A
// agrees with direct MatMulInto on random matrices.
func TestMatMulTransposeIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a := MustNew(m, k)
		a.UniformInit(1, rng)
		b := MustNew(k, n)
		b.UniformInit(1, rng)
		direct := MustNew(m, n)
		if err := MatMulInto(direct, a, b); err != nil {
			return false
		}
		// MatMulTransAInto(Aᵀ-stored, B) == A·B when we store A transposed.
		aT := MustNew(k, m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				aT.Set(a.At(i, p), p, i)
			}
		}
		viaTrans := MustNew(m, n)
		if err := MatMulTransAInto(viaTrans, aT, b); err != nil {
			return false
		}
		for i := range direct.Data {
			if math.Abs(float64(direct.Data[i]-viaTrans.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
