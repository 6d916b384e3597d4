// Package tensor provides the dense float32 n-d array underpinning the
// pure-Go detector: shape bookkeeping, elementwise kernels, and a blocked
// parallel matrix multiply. It is deliberately small — just what a
// single-stage convolutional detector needs — but each operation is
// bounds-checked and tested in isolation.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape. All dimensions must
// be positive.
func New(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: dimension %d must be positive in shape %v", d, shape)
		}
		n *= d
	}
	if len(shape) == 0 {
		return nil, fmt.Errorf("tensor: shape must have at least one dimension")
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}, nil
}

// MustNew is New for statically known-valid shapes; panics on error.
func MustNew(shape ...int) *Tensor {
	t, err := New(shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape, copying the slice.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	t, err := New(shape...)
	if err != nil {
		return nil, err
	}
	if len(data) != len(t.Data) {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (%d elems)", len(data), shape, len(t.Data))
	}
	copy(t.Data, data)
	return t, nil
}

// NumElems returns the total element count.
func (t *Tensor) NumElems() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int {
	if i < 0 || i >= len(t.Shape) {
		return 0
	}
	return t.Shape[i]
}

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// offset computes the flat index for multi-indices; panics on rank or
// range errors (programming bugs, not runtime conditions). The panic
// messages format only scalars — never the idx slice — so escape
// analysis keeps At/Set variadic arguments on the caller's stack, which
// is what makes index-heavy hot loops (target encoding, loss
// gather/scatter, grid decode) allocation-free.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dimension %d", v, t.Shape[i], i))
		}
		off = off*t.Shape[i] + v
	}
	return off
}

// At reads the element at the multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set writes the element at the multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddScaled adds alpha*o elementwise into t. Shapes must match.
func (t *Tensor) AddScaled(o *Tensor, alpha float32) error {
	if !t.SameShape(o) {
		return fmt.Errorf("tensor: AddScaled shape mismatch %v vs %v", t.Shape, o.Shape)
	}
	for i := range t.Data {
		t.Data[i] += alpha * o.Data[i]
	}
	return nil
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var sum float64
	for _, v := range t.Data {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

// HeInit fills the tensor with Kaiming-He normal values for a layer with
// the given fan-in, the standard initialization for ReLU-family networks.
func (t *Tensor) HeInit(fanIn int, rng *rand.Rand) error {
	if fanIn <= 0 {
		return fmt.Errorf("tensor: HeInit fan-in must be positive, got %d", fanIn)
	}
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return nil
}

// UniformInit fills with values in [-bound, bound].
func (t *Tensor) UniformInit(bound float64, rng *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = float32((rng.Float64()*2 - 1) * bound)
	}
}
