package tensor

import (
	"sync"
	"testing"
)

func TestPoolGetShapes(t *testing.T) {
	p := NewPool()
	a := p.Get(2, 3, 4)
	if len(a.Data) != 24 || len(a.Shape) != 3 || a.Shape[0] != 2 || a.Shape[2] != 4 {
		t.Fatalf("Get(2,3,4) = shape %v, %d elems", a.Shape, len(a.Data))
	}
	p.Put(a)
	// Same element count, different shape: the recycled buffer must carry
	// the new shape.
	b := p.Get(24)
	if len(b.Shape) != 1 || b.Shape[0] != 24 || len(b.Data) != 24 {
		t.Fatalf("recycled Get(24) = shape %v, %d elems", b.Shape, len(b.Data))
	}
	p.Put(b)
	p.Put(nil) // no-op
}

func TestPoolGetInvalidShapePanics(t *testing.T) {
	p := NewPool()
	assertPanics(t, func() { p.Get() }, "empty shape")
	assertPanics(t, func() { p.Get(2, 0) }, "zero dimension")
	assertPanics(t, func() { p.Get(-3) }, "negative dimension")
}

func TestPoolConcurrentUse(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := p.Get(4, 4)
				a.Fill(float32(w))
				for _, v := range a.Data {
					if v != float32(w) {
						t.Errorf("worker %d saw %f", w, v)
						return
					}
				}
				p.Put(a)
			}
		}(w)
	}
	wg.Wait()
}

func TestScratchRoundTrip(t *testing.T) {
	a := GetScratch(3, 3)
	if len(a.Data) != 9 {
		t.Fatalf("GetScratch(3,3) = %d elems", len(a.Data))
	}
	a.Zero()
	PutScratch(a)
	PutScratch(nil)
}
