package vlm

import (
	"math"
	"math/rand"
	"testing"

	"nbhd/internal/scene"
)

// TestFirstFloat64MatchesMathRand pins the closed-form draw to
// math/rand bit for bit over random seeds and the seeds where
// rngSource.Seed's normalisation has edges: multiples of 2³¹−1
// normalise to 0, which math/rand replaces with 89482311.
func TestFirstFloat64MatchesMathRand(t *testing.T) {
	const mod = 1<<31 - 1
	seeds := []int64{
		0, 1, -1,
		mod, -mod, 2 * mod, mod - 1, mod + 1,
		89482311, -89482311,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	gen := rand.New(rand.NewSource(20251017))
	for range 10000 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, s := range seeds {
		if got, want := firstFloat64(s), rand.New(rand.NewSource(s)).Float64(); got != want {
			t.Errorf("seed %d: firstFloat64 = %v, math/rand = %v", s, got, want)
		}
	}
}

// TestFirstFloat64ZeroSeed: a seed that normalises to 0 is replaced by
// 89482311, exactly as math/rand does.
func TestFirstFloat64ZeroSeed(t *testing.T) {
	const zeroSeed = 89482311
	s := int64(7 * (1<<31 - 1))
	if got, want := firstFloat64(s), firstFloat64(zeroSeed); got != want {
		t.Errorf("firstFloat64(%d) = %v, want firstFloat64(%d) = %v", s, got, zeroSeed, want)
	}
	if got, want := firstFloat64(s), rand.New(rand.NewSource(s)).Float64(); got != want {
		t.Errorf("firstFloat64(%d) = %v, math/rand = %v", s, got, want)
	}
}

// TestInt63FloatRejectsOne: the largest Int63 rounds to 1.0, which
// Float64 redraws; no searchable seed reaches it, so the check is
// tested on the crafted value.
func TestInt63FloatRejectsOne(t *testing.T) {
	if f, ok := int63Float(1<<63 - 1); ok || f != 1 {
		t.Errorf("int63Float(1<<63-1) = %v, %v; want 1, false", f, ok)
	}
	if f, ok := int63Float(1<<63 - 1024); !ok || f >= 1 {
		t.Errorf("int63Float(1<<63-1024) = %v, %v; want <1, true", f, ok)
	}
	if f, ok := int63Float(0); !ok || f != 0 {
		t.Errorf("int63Float(0) = %v, %v; want 0, true", f, ok)
	}
}

// TestClassifyPerceivedAllocs: answering a six-indicator request
// allocates only the answer slice.
func TestClassifyPerceivedAllocs(t *testing.T) {
	m, err := NewModel(mustProfile(t, Gemini15Pro))
	if err != nil {
		t.Fatal(err)
	}
	_, ex := studyExamples(t, 1)
	feats, err := Perceive(ex[0].Image)
	if err != nil {
		t.Fatal(err)
	}
	inds := scene.Indicators()
	req := Request{Image: ex[0].Image, Indicators: inds[:]}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.ClassifyPerceived(req, feats); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("ClassifyPerceived allocates %v times per call, want at most 1", allocs)
	}
}
