package dataset

import (
	"bytes"
	"testing"

	"nbhd/internal/render"
	"nbhd/internal/store"
)

func buildTestStudy(t *testing.T) *Study {
	t.Helper()
	st, err := BuildStudy(StudyConfig{Coordinates: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWarmStartZeroRenders is the render-once/serve-forever guarantee:
// a second cache over the same store must serve the entire corpus
// without a single render.Render call.
func TestWarmStartZeroRenders(t *testing.T) {
	study := buildTestStudy(t)
	dir := t.TempDir()
	const size = 32

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := NewPersistentRenderCache(study, st)
	coldPix := make(map[int][]float32)
	for i := 0; i < study.Len(); i++ {
		ex, err := cold.Example(i, size)
		if err != nil {
			t.Fatalf("cold Example(%d): %v", i, err)
		}
		coldPix[i] = append([]float32(nil), ex.Image.Pix...)
	}
	if got := cold.Renders(); got != int64(study.Len()) {
		t.Fatalf("cold Renders = %d, want %d", got, study.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := NewPersistentRenderCache(study, st2)
	for i := 0; i < study.Len(); i++ {
		ex, err := warm.Example(i, size)
		if err != nil {
			t.Fatalf("warm Example(%d): %v", i, err)
		}
		// Store-served pixels must be bit-identical to the cold render.
		if len(ex.Image.Pix) != len(coldPix[i]) {
			t.Fatalf("frame %d: pixel count differs", i)
		}
		for j := range ex.Image.Pix {
			if ex.Image.Pix[j] != coldPix[i][j] {
				t.Fatalf("frame %d pixel %d differs between store and render", i, j)
			}
		}
	}
	if got := warm.Renders(); got != 0 {
		t.Fatalf("warm Renders = %d, want 0 (every frame must come from the store)", got)
	}
	if got := warm.StoreHits(); got != int64(study.Len()) {
		t.Fatalf("warm StoreHits = %d, want %d", got, study.Len())
	}
}

// TestPersistentTierPerResolution: the key includes the resolution, so
// one store holds the same corpus at several sizes without collisions.
func TestPersistentTierPerResolution(t *testing.T) {
	study := buildTestStudy(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := NewPersistentRenderCache(study, st)
	a, err := c.Example(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Example(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Image.W != 32 || b.Image.W != 64 {
		t.Fatalf("sizes = %d/%d, want 32/64", a.Image.W, b.Image.W)
	}
	if st.Len() != 2 {
		t.Fatalf("store Len = %d, want 2 (one record per resolution)", st.Len())
	}
}

// TestNilStoreDegradesToRAMOnly keeps the constructor honest.
func TestNilStoreDegradesToRAMOnly(t *testing.T) {
	study := buildTestStudy(t)
	c := NewPersistentRenderCache(study, nil)
	if _, err := c.Example(0, 32); err != nil {
		t.Fatal(err)
	}
	if c.Renders() != 1 || c.StoreHits() != 0 {
		t.Fatalf("Renders/StoreHits = %d/%d, want 1/0", c.Renders(), c.StoreHits())
	}
}

// TestRenderIntoTiers: RenderInto copies a frame the memory tier holds,
// else reads the store, else renders and persists — and only the render
// counts toward Renders. Every tier yields the same pixels.
func TestRenderIntoTiers(t *testing.T) {
	const size = 24
	study := buildTestStudy(t)
	indices := make([]int, study.Len())
	for i := range indices {
		indices[i] = i
	}
	want, err := study.RenderExamples(indices, size)
	if err != nil {
		t.Fatal(err)
	}
	buf := render.MustNewImage(size, size)
	sweep := func(name string, c *RenderCache, renders, hits int64) {
		t.Helper()
		for i := range indices {
			if err := c.RenderInto(i, buf); err != nil {
				t.Fatalf("%s: RenderInto(%d): %v", name, i, err)
			}
			if !bytes.Equal(buf.EncodeRawF32(), want[i].Image.EncodeRawF32()) {
				t.Fatalf("%s: frame %d diverges from RenderExamples", name, i)
			}
		}
		if c.Renders() != renders || c.StoreHits() != hits {
			t.Errorf("%s: Renders/StoreHits = %d/%d, want %d/%d", name, c.Renders(), c.StoreHits(), renders, hits)
		}
	}

	held := NewRenderCache(study)
	for i := range indices {
		if _, err := held.Example(i, size); err != nil {
			t.Fatal(err)
		}
	}
	sweep("memory tier", held, int64(study.Len()), 0)

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sweep("cold store", NewPersistentRenderCache(study, st), int64(study.Len()), 0)
	if st.Len() != study.Len() {
		t.Fatalf("store holds %d frames after a cold sweep, want %d", st.Len(), study.Len())
	}
	sweep("warm store", NewPersistentRenderCache(study, st), 0, int64(study.Len()))

	if err := held.RenderInto(0, render.MustNewImage(size, size+1)); err == nil {
		t.Error("RenderInto accepted a buffer that is not square")
	}
}
