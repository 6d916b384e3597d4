package dataset

import (
	"sync"
	"testing"
)

// examples fetches the cached renders of the given frames, in order.
func examples(c *RenderCache, indices []int, size int) ([]Example, error) {
	out := make([]Example, 0, len(indices))
	for _, idx := range indices {
		ex, err := c.Example(idx, size)
		if err != nil {
			return nil, err
		}
		out = append(out, ex)
	}
	return out, nil
}

func cacheStudy(t *testing.T) *Study {
	t.Helper()
	s, err := BuildStudy(StudyConfig{Coordinates: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRenderCacheMatchesRenderExamples asserts cached examples are
// bit-identical to the uncached path.
func TestRenderCacheMatchesRenderExamples(t *testing.T) {
	s := cacheStudy(t)
	c := NewRenderCache(s)
	indices := []int{0, 3, 5, 1}
	want, err := s.RenderExamples(indices, 48)
	if err != nil {
		t.Fatal(err)
	}
	got, err := examples(c, indices, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("examples = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Errorf("example %d id %q, want %q", i, got[i].ID, want[i].ID)
		}
		if got[i].Image.W != want[i].Image.W || got[i].Image.H != want[i].Image.H {
			t.Errorf("example %d size %dx%d, want %dx%d", i, got[i].Image.W, got[i].Image.H, want[i].Image.W, want[i].Image.H)
		}
		for p := range want[i].Image.Pix {
			if got[i].Image.Pix[p] != want[i].Image.Pix[p] {
				t.Fatalf("example %d pixel %d differs", i, p)
			}
		}
		if len(got[i].Objects) != len(want[i].Objects) {
			t.Errorf("example %d objects = %d, want %d", i, len(got[i].Objects), len(want[i].Objects))
		}
	}
}

// TestRenderCacheRendersOnce asserts repeated and concurrent lookups
// render each (frame, size) exactly once, while distinct sizes render
// separately.
func TestRenderCacheRendersOnce(t *testing.T) {
	s := cacheStudy(t)
	c := NewRenderCache(s)
	indices := make([]int, s.Len())
	for i := range indices {
		indices[i] = i
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := examples(c, indices, 32); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Renders(), int64(s.Len()); got != want {
		t.Fatalf("renders after concurrent sweeps = %d, want %d", got, want)
	}
	// Same size again: fully cached.
	a, err := examples(c, indices, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := examples(c, indices, 32)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Image != b[0].Image {
		t.Error("repeated lookups returned different image pointers")
	}
	if got, want := c.Renders(), int64(s.Len()); got != want {
		t.Fatalf("renders after warm lookups = %d, want %d", got, want)
	}
	// A new size renders once more per frame.
	if _, err := examples(c, indices, 48); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Renders(), int64(2*s.Len()); got != want {
		t.Fatalf("renders after second size = %d, want %d", got, want)
	}
}

func TestRenderCacheValidation(t *testing.T) {
	s := cacheStudy(t)
	c := NewRenderCache(s)
	if _, err := c.Example(-1, 32); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := c.Example(s.Len(), 32); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := c.Example(0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if c.Study() != s {
		t.Error("Study() did not return the backing study")
	}
}
