package tensor

import "sync"

// Pool recycles tensors by element count so hot loops (training steps,
// concurrent inference) reuse buffers instead of churning the garbage
// collector. Buckets are backed by sync.Pool, so the pool is safe for
// concurrent use and its contents are reclaimable under memory pressure —
// holding a buffer in the pool never pins peak memory the way a
// long-lived per-layer cache would.
//
// Get returns a tensor with UNDEFINED contents: callers must fully write
// it (or call Zero) before reading. Put hands the tensor back; it must
// not be used — or Put again — afterward.
type Pool struct {
	buckets sync.Map // element count -> *sync.Pool of *Tensor
}

// NewPool constructs an empty pool.
func NewPool() *Pool { return &Pool{} }

func (p *Pool) bucket(n int) *sync.Pool {
	if v, ok := p.buckets.Load(n); ok {
		return v.(*sync.Pool)
	}
	v, _ := p.buckets.LoadOrStore(n, &sync.Pool{})
	return v.(*sync.Pool)
}

// Get returns a tensor of the given shape with undefined contents,
// reusing a pooled buffer of the same element count when one is
// available. Invalid shapes panic (a programming bug, as in MustNew).
func (p *Pool) Get(shape ...int) *Tensor {
	if len(shape) == 0 {
		panic("tensor: pool Get with empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// A constant panic message keeps the shape argument from
			// escaping, so hot-loop Gets stay allocation-free.
			panic("tensor: pool Get with non-positive dimension")
		}
		n *= d
	}
	if v := p.bucket(n).Get(); v != nil {
		t := v.(*Tensor)
		t.Shape = append(t.Shape[:0], shape...)
		return t
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Put returns a tensor to the pool for reuse. Put(nil) is a no-op.
func (p *Pool) Put(t *Tensor) {
	if t == nil || len(t.Data) == 0 {
		return
	}
	p.bucket(len(t.Data)).Put(t)
}

// scratch is the package-level pool shared by the whole compute layer:
// nn layer activations and gradients, im2col matrices, and the
// yolo/classify batch tensors all cycle through it, so a buffer freed by
// one stage is immediately reusable by the next.
var scratch = NewPool()

// GetScratch returns a tensor from the shared scratch pool. Contents are
// undefined; see Pool.Get.
func GetScratch(shape ...int) *Tensor { return scratch.Get(shape...) }

// PutScratch returns a tensor to the shared scratch pool. The tensor
// must not be used afterward.
func PutScratch(t *Tensor) { scratch.Put(t) }

// SlicePool is the typed-slice sibling of Pool for the quantized path:
// int8 activations, int16 packed panels, and int32 accumulators each get
// their own bucket space, so quantized scratch never aliases (or evicts)
// the float32 tensor buckets. Same contract as Pool: Get returns
// UNDEFINED contents sized at least n (sliced to exactly n), Put recycles.
type SlicePool[T int8 | int16 | int32] struct {
	buckets sync.Map // rounded capacity -> *sync.Pool of *sliceBox[T]
	// boxes holds emptied boxes, so Put refills one instead of
	// allocating a box per call.
	boxes sync.Pool
}

type sliceBox[T int8 | int16 | int32] struct{ buf []T }

func (p *SlicePool[T]) bucket(n int) *sync.Pool {
	if v, ok := p.buckets.Load(n); ok {
		return v.(*sync.Pool)
	}
	v, _ := p.buckets.LoadOrStore(n, &sync.Pool{})
	return v.(*sync.Pool)
}

// Get returns a slice of length n with undefined contents. Capacities
// round up to 1K-element buckets so close sizes share buffers.
func (p *SlicePool[T]) Get(n int) []T {
	if n < 0 {
		panic("tensor: slice pool Get with negative size")
	}
	bcap := roundUp(n, 1024)
	if v := p.bucket(bcap).Get(); v != nil {
		box := v.(*sliceBox[T])
		s := box.buf[:n]
		box.buf = nil
		p.boxes.Put(box)
		return s
	}
	return make([]T, bcap)[:n]
}

// Put returns a slice obtained from Get to the pool. The slice must not
// be used afterward. Put(nil) is a no-op.
func (p *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	box, _ := p.boxes.Get().(*sliceBox[T])
	if box == nil {
		box = new(sliceBox[T])
	}
	box.buf = s[:cap(s)]
	p.bucket(cap(s)).Put(box)
}

// Package-level typed scratch pools for the quantized inference path.
var (
	scratchI8  SlicePool[int8]
	scratchI16 SlicePool[int16]
)

// GetScratchI8 returns pooled int8 scratch of length n (undefined contents).
func GetScratchI8(n int) []int8 { return scratchI8.Get(n) }

// PutScratchI8 recycles int8 scratch obtained from GetScratchI8.
func PutScratchI8(s []int8) { scratchI8.Put(s) }

// GetScratchI16 returns pooled int16 scratch of length n (undefined contents).
func GetScratchI16(n int) []int16 { return scratchI16.Get(n) }

// PutScratchI16 recycles int16 scratch obtained from GetScratchI16.
func PutScratchI16(s []int16) { scratchI16.Put(s) }
