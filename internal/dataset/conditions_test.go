package dataset

import (
	"bytes"
	"strings"
	"testing"

	"nbhd/internal/render"
	"nbhd/internal/store"
)

// testFrame renders a deterministic non-trivial image to degrade.
func testFrame(t *testing.T, size int) *render.Image {
	t.Helper()
	study := testStudyWith(t, StudyConfig{Coordinates: 1, Seed: 11})
	exs, err := study.RenderExamples([]int{0}, size)
	if err != nil {
		t.Fatal(err)
	}
	return exs[0].Image
}

func testStudyWith(t *testing.T, cfg StudyConfig) *Study {
	t.Helper()
	study, err := BuildStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return study
}

func degradedConditions() []string {
	var out []string
	for _, c := range Conditions() {
		if c != ConditionClean {
			out = append(out, c)
		}
	}
	return out
}

func TestConditionsRegistry(t *testing.T) {
	names := Conditions()
	if len(names) == 0 || names[0] != ConditionClean {
		t.Fatalf("Conditions() = %v, want clean first", names)
	}
	want := []string{"clean", "night", "noise", "occlusion"}
	if len(names) != len(want) {
		t.Fatalf("Conditions() = %v, want %v", names, want)
	}
	for i, n := range names {
		if n != want[i] {
			t.Fatalf("Conditions() = %v, want %v", names, want)
		}
		if !ValidCondition(n) {
			t.Errorf("ValidCondition(%q) = false", n)
		}
	}
	if !ValidCondition("") {
		t.Error("empty condition should be valid (clean)")
	}
	if ValidCondition("fog") {
		t.Error("ValidCondition(fog) = true, want false")
	}
}

func TestApplyConditionUnknown(t *testing.T) {
	img, err := render.NewImage(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ApplyCondition("fog", img, 1)
	if err == nil {
		t.Fatal("ApplyCondition(fog) succeeded")
	}
	if !strings.Contains(err.Error(), "fog") || !strings.Contains(err.Error(), "night") {
		t.Errorf("error should name the bad condition and list valid ones: %v", err)
	}
}

func TestApplyConditionCleanIsIdentity(t *testing.T) {
	img := testFrame(t, 32)
	for _, name := range []string{"", ConditionClean} {
		out, err := ApplyCondition(name, img, 99)
		if err != nil {
			t.Fatal(err)
		}
		if out != img {
			t.Errorf("ApplyCondition(%q) should return the input without copying", name)
		}
	}
}

// TestConditionOpProperties sweeps every degraded op through the pure-
// function contract: deterministic in (frame, seed), input never mutated,
// all output pixels in [0,1], distinct seeds produce distinct frames, and
// the output actually differs from the input.
func TestConditionOpProperties(t *testing.T) {
	img := testFrame(t, 32)
	before := append([]float32(nil), img.Pix...)
	for _, cond := range degradedConditions() {
		a, err := ApplyCondition(cond, img, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ApplyCondition(cond, img, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.EncodeRawF32(), b.EncodeRawF32()) {
			t.Errorf("%s: same seed produced different pixels", cond)
		}
		c, err := ApplyCondition(cond, img, 43)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.EncodeRawF32(), c.EncodeRawF32()) {
			t.Errorf("%s: different seeds produced identical pixels", cond)
		}
		if bytes.Equal(a.EncodeRawF32(), img.EncodeRawF32()) {
			t.Errorf("%s: degraded frame identical to clean input", cond)
		}
		for i, v := range a.Pix {
			if v < 0 || v > 1 {
				t.Fatalf("%s: pixel %d = %f outside [0,1]", cond, i, v)
			}
		}
		for i, v := range img.Pix {
			if v != before[i] {
				t.Fatalf("%s: op mutated its input at pixel %d", cond, i)
			}
		}
		if a.W != img.W || a.H != img.H {
			t.Errorf("%s: op changed dimensions %dx%d -> %dx%d", cond, img.W, img.H, a.W, a.H)
		}
	}
}

// TestConditionOpsTinyImage pins the degenerate small-frame case: on a
// 1x1 or 2x2 image an occluder can cover the whole frame; the ops must
// still terminate with in-range pixels.
func TestConditionOpsTinyImage(t *testing.T) {
	for _, dim := range []int{1, 2} {
		img, err := render.NewImage(dim, dim)
		if err != nil {
			t.Fatal(err)
		}
		for i := range img.Pix {
			img.Pix[i] = 0.5
		}
		for _, cond := range degradedConditions() {
			out, err := ApplyCondition(cond, img, 7)
			if err != nil {
				t.Fatalf("%s on %dx%d: %v", cond, dim, dim, err)
			}
			for i, v := range out.Pix {
				if v < 0 || v > 1 {
					t.Errorf("%s on %dx%d: pixel %d = %f outside [0,1]", cond, dim, dim, i, v)
				}
			}
		}
	}
}

func TestFillRectFullFrameAndClamping(t *testing.T) {
	img, err := render.NewImage(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Pix {
		img.Pix[i] = 0.9
	}
	// Bounds far outside the image must clamp, covering the whole frame.
	img.FillRect(-10, -10, 100, 100, 0.1, 0.2, 0.3)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if r := img.At(x, y, 0); r != 0.1 {
				t.Fatalf("pixel (%d,%d) red = %f, want 0.1", x, y, r)
			}
		}
	}
}

func TestConditionSeedIndependence(t *testing.T) {
	base := ConditionSeed(5, "durham-0001-n", "night")
	if got := ConditionSeed(5, "durham-0001-n", "night"); got != base {
		t.Error("ConditionSeed not deterministic")
	}
	distinct := map[int64]string{base: "base"}
	for k, v := range map[string]int64{
		"other frame":     ConditionSeed(5, "durham-0002-n", "night"),
		"other condition": ConditionSeed(5, "durham-0001-n", "noise"),
		"other seed":      ConditionSeed(6, "durham-0001-n", "night"),
		// The separator byte keeps (frameID, condition) unambiguous.
		"shifted boundary": ConditionSeed(5, "durham-0001-nnight", ""),
	} {
		if prev, ok := distinct[v]; ok {
			t.Errorf("ConditionSeed collision between %s and %s", prev, k)
		}
		distinct[v] = k
	}
}

func TestBuildStudyRejectsUnknownCondition(t *testing.T) {
	_, err := BuildStudy(StudyConfig{Coordinates: 1, Seed: 1, Condition: "fog"})
	if err == nil {
		t.Fatal("BuildStudy accepted unknown condition")
	}
	if !strings.Contains(err.Error(), "fog") {
		t.Errorf("error should name the condition: %v", err)
	}
}

func TestBuildStudyNormalizesClean(t *testing.T) {
	study := testStudyWith(t, StudyConfig{Coordinates: 1, Seed: 1, Condition: ConditionClean})
	if study.Condition != "" {
		t.Errorf("Condition = %q, want empty (clean normalized)", study.Condition)
	}
}

// TestConditionedStudyMatchesApplyCondition pins the seed-derivation
// contract: a corpus built with a condition renders exactly
// ApplyCondition(clean render, ConditionSeed(...)).
func TestConditionedStudyMatchesApplyCondition(t *testing.T) {
	const size = 24
	clean := testStudyWith(t, StudyConfig{Coordinates: 2, Seed: 11})
	night := testStudyWith(t, StudyConfig{Coordinates: 2, Seed: 11, Condition: "night"})
	for i := 0; i < clean.Len(); i++ {
		cexs, err := clean.RenderExamples([]int{i}, size)
		if err != nil {
			t.Fatal(err)
		}
		nexs, err := night.RenderExamples([]int{i}, size)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ApplyCondition("night", cexs[0].Image, ConditionSeed(11, cexs[0].ID, "night"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nexs[0].Image.EncodeRawF32(), want.EncodeRawF32()) {
			t.Fatalf("frame %d: conditioned corpus diverges from ApplyCondition", i)
		}
		// Ground truth must be untouched by the degradation.
		if len(nexs[0].Objects) != len(cexs[0].Objects) {
			t.Fatalf("frame %d: condition changed ground truth", i)
		}
		for j := range nexs[0].Objects {
			if nexs[0].Objects[j] != cexs[0].Objects[j] {
				t.Fatalf("frame %d object %d: condition moved ground truth", i, j)
			}
		}
	}
}

// TestCacheCondExampleMatchesRenderExamples pins the cache-tier/corpus-
// tier byte-identity for every plane combination: a cache override on a
// clean corpus equals a corpus built with that condition, and a "clean"
// override on a degraded corpus recovers the clean render.
func TestCacheCondExampleMatchesRenderExamples(t *testing.T) {
	const size = 24
	clean := testStudyWith(t, StudyConfig{Coordinates: 2, Seed: 11})
	night := testStudyWith(t, StudyConfig{Coordinates: 2, Seed: 11, Condition: "night"})
	cleanCache := NewRenderCache(clean)
	nightCache := NewRenderCache(night)

	for i := 0; i < clean.Len(); i++ {
		corpusNight, err := night.RenderExamples([]int{i}, size)
		if err != nil {
			t.Fatal(err)
		}
		corpusClean, err := clean.RenderExamples([]int{i}, size)
		if err != nil {
			t.Fatal(err)
		}
		// Override on a clean corpus == corpus built degraded.
		ex, err := cleanCache.CondExample(i, size, "night")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ex.Image.EncodeRawF32(), corpusNight[0].Image.EncodeRawF32()) {
			t.Fatalf("frame %d: cache night override diverges from night corpus", i)
		}
		// Inherited condition on a degraded corpus == corpus render.
		ex, err = nightCache.Example(i, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ex.Image.EncodeRawF32(), corpusNight[0].Image.EncodeRawF32()) {
			t.Fatalf("frame %d: cache inherited condition diverges from corpus", i)
		}
		// Explicit clean override on a degraded corpus recovers clean.
		ex, err = nightCache.CondExample(i, size, ConditionClean)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ex.Image.EncodeRawF32(), corpusClean[0].Image.EncodeRawF32()) {
			t.Fatalf("frame %d: cache clean override diverges from clean corpus", i)
		}
	}
	if cleanCache.Renders() != int64(clean.Len()) {
		t.Errorf("clean cache issued %d renders, want %d (degraded planes derive from the clean base)",
			cleanCache.Renders(), clean.Len())
	}
}

func TestCacheCondExampleUnknownCondition(t *testing.T) {
	study := testStudyWith(t, StudyConfig{Coordinates: 1, Seed: 1})
	cache := NewRenderCache(study)
	if _, err := cache.CondExample(0, 16, "fog"); err == nil {
		t.Error("CondExample(fog) succeeded")
	}
}

// TestPersistentStoreHoldsCleanFrames pins the tier contract: the
// persistent store only ever holds clean pixels; degraded planes are
// derived per process and never persisted.
func TestPersistentStoreHoldsCleanFrames(t *testing.T) {
	const size = 24
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	degraded := testStudyWith(t, StudyConfig{Coordinates: 1, Seed: 11, Condition: "occlusion"})
	cache := NewPersistentRenderCache(degraded, st)
	ex, err := cache.Example(0, size)
	if err != nil {
		t.Fatal(err)
	}

	clean := testStudyWith(t, StudyConfig{Coordinates: 1, Seed: 11})
	wantClean, err := clean.RenderExamples([]int{0}, size)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ex.Image.EncodeRawF32(), wantClean[0].Image.EncodeRawF32()) {
		t.Fatal("degraded corpus served clean pixels")
	}

	stored, ok, err := st.Get(cache.frameKey(0, size))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("clean base render was not persisted")
	}
	if !bytes.Equal(stored.EncodeRawF32(), wantClean[0].Image.EncodeRawF32()) {
		t.Fatal("store holds degraded pixels, want clean")
	}

	// A second cache over the same store serves the degraded plane from
	// the stored clean base without rendering — and byte-identically.
	cache2 := NewPersistentRenderCache(degraded, st)
	ex2, err := cache2.Example(0, size)
	if err != nil {
		t.Fatal(err)
	}
	if cache2.Renders() != 0 {
		t.Errorf("warm cache issued %d renders, want 0", cache2.Renders())
	}
	if cache2.StoreHits() != 1 {
		t.Errorf("warm cache hit the store %d times, want 1", cache2.StoreHits())
	}
	if !bytes.Equal(ex2.Image.EncodeRawF32(), ex.Image.EncodeRawF32()) {
		t.Error("warm-start degraded frame diverges from cold-start")
	}
}

// TestResolveCondition: an override resolves against the corpus's
// condition to the name of the frames it selects, never empty.
func TestResolveCondition(t *testing.T) {
	for _, tc := range []struct{ corpus, cond, want string }{
		{"", "", ConditionClean},
		{"", ConditionClean, ConditionClean},
		{"", "night", "night"},
		{"night", "", "night"},
		{"night", ConditionClean, ConditionClean},
		{"night", "noise", "noise"},
		{ConditionClean, "", ConditionClean},
	} {
		if got := ResolveCondition(tc.corpus, tc.cond); got != tc.want {
			t.Errorf("ResolveCondition(%q, %q) = %q, want %q", tc.corpus, tc.cond, got, tc.want)
		}
	}
}

// TestCacheRenderIntoMatchesCondExample: the buffer path — RenderInto a
// reused buffer, then ConditionInto another — reproduces CondExample
// for every condition, counts each render and caches nothing.
func TestCacheRenderIntoMatchesCondExample(t *testing.T) {
	const size = 24
	study := testStudyWith(t, StudyConfig{Coordinates: 2, Seed: 11})
	cached := NewRenderCache(study)
	buffered := NewRenderCache(study)
	clean, dst := render.MustNewImage(size, size), render.MustNewImage(size, size)
	for i := 0; i < study.Len(); i++ {
		if err := buffered.RenderInto(i, clean); err != nil {
			t.Fatal(err)
		}
		for _, cond := range Conditions() {
			want, err := cached.CondExample(i, size, cond)
			if err != nil {
				t.Fatal(err)
			}
			got, err := buffered.ConditionInto(i, cond, clean, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.EncodeRawF32(), want.Image.EncodeRawF32()) {
				t.Fatalf("frame %d %s: buffered frame diverges from CondExample", i, cond)
			}
		}
	}
	if got := buffered.Renders(); got != int64(study.Len()) {
		t.Errorf("RenderInto counted %d renders, want %d", got, study.Len())
	}
	if _, err := buffered.Example(0, size); err != nil {
		t.Fatal(err)
	}
	if got := buffered.Renders(); got != int64(study.Len())+1 {
		t.Errorf("Example after RenderInto rendered %d frames in all, want %d (RenderInto caches nothing)", got, study.Len()+1)
	}
	if _, err := buffered.ConditionInto(0, "night", clean, render.MustNewImage(size, size+1)); err == nil {
		t.Error("ConditionInto accepted an output of another size")
	}
	if err := buffered.RenderInto(study.Len(), clean); err == nil {
		t.Error("RenderInto accepted a frame index past the corpus")
	}
}
