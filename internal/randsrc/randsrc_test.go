package randsrc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// edgeSeeds are the seeds where math/rand's normalisation has edges:
// zero, ±1, ±(2³¹−1) and its multiples (which normalise to 0 and take
// the replacement seed), the replacement seed and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1,
	mod, -mod, 2 * mod, -3 * mod, mod - 1, mod + 1,
	zeroSeed, -zeroSeed,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
}

// draws is past two register lengths, so every word has been both tap
// and feed and the wrap of both indices is covered.
const draws = 3 * length

// sameStream compares n draws of every rand.Rand method the renderer,
// scene generator and degradation ops use, and of the concrete
// Float64, against math/rand seeded with seed. Each draw gets a nil
// *Source on the math/rand side.
func sameStream(t *testing.T, seed int64, n int) {
	t.Helper()
	for _, m := range []struct {
		name string
		draw func(r *rand.Rand, s *Source) any
	}{
		{"Int63", func(r *rand.Rand, _ *Source) any { return r.Int63() }},
		{"Uint64", func(r *rand.Rand, _ *Source) any { return r.Uint64() }},
		{"Float64", func(r *rand.Rand, _ *Source) any { return r.Float64() }},
		{"Source.Float64", func(r *rand.Rand, s *Source) any {
			if s == nil {
				return r.Float64()
			}
			return s.Float64()
		}},
		{"Intn(7)", func(r *rand.Rand, _ *Source) any { return r.Intn(7) }},
		{"Intn(1<<30+1)", func(r *rand.Rand, _ *Source) any { return r.Intn(1<<30 + 1) }},
		{"Int63n(1<<40+3)", func(r *rand.Rand, _ *Source) any { return r.Int63n(1<<40 + 3) }},
		{"NormFloat64", func(r *rand.Rand, _ *Source) any { return r.NormFloat64() }},
		{"Perm(9)", func(r *rand.Rand, _ *Source) any { return r.Perm(9) }},
		{"Shuffle(5)", func(r *rand.Rand, _ *Source) any {
			v := [5]int{0, 1, 2, 3, 4}
			r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
			return v
		}},
	} {
		want := rand.New(rand.NewSource(seed))
		src := New(seed)
		got := rand.New(src)
		for i := range n {
			if g, w := m.draw(got, src), m.draw(want, nil); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: %s draw %d = %v, math/rand = %v", seed, m.name, i, g, w)
			}
		}
	}
}

// TestSourceMatchesMathRand pins every stream to math/rand on the edge
// seeds and on random ones.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	gen := rand.New(rand.NewSource(20261017))
	for range 20 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, s := range seeds {
		sameStream(t, s, draws)
	}
}

// TestReseed: Seed on a used source restarts it exactly where
// rand.NewSource(seed) starts, whatever it drew before.
func TestReseed(t *testing.T) {
	src := New(42)
	for range length + 11 {
		src.Uint64()
	}
	for _, seed := range edgeSeeds {
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := range draws {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseeded with %d: draw %d = %d, math/rand = %d", seed, i, g, w)
			}
		}
		src.Int63() // leave the source mid-stream for the next seed
	}
}

// TestFirstInt63 pins the closed-form first draw to math/rand.
func TestFirstInt63(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	gen := rand.New(rand.NewSource(20251017))
	for range 10000 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, s := range seeds {
		if got, want := FirstInt63(s), rand.NewSource(s).Int63(); got != want {
			t.Errorf("seed %d: FirstInt63 = %d, math/rand = %d", s, got, want)
		}
	}
}

// TestJumpTable: each jump multiplier equals stepping the Lehmer
// generator from 1 to the first seeding step of its word, the way
// math/rand does, with Schrage's division.
func TestJumpTable(t *testing.T) {
	x := int64(1)
	for step := 1; step <= 21+3*(length-1); step++ {
		x = x * mul % mod
		if i := (step - 21) / 3; step >= 21 && (step-21)%3 == 0 && uint64(x) != jump[i] {
			t.Fatalf("48271^%d mod (2^31-1) = %d, jump[%d] = %d", step, x, i, jump[i])
		}
	}
}

// TestReduceExtremes checks the two folds at the largest products and
// at products that land just above and below multiples of 2³¹−1.
func TestReduceExtremes(t *testing.T) {
	for _, p := range []uint64{
		1, mod - 1, mod + 1, 2*mod - 1, 2*mod + 1,
		(mod - 1) * (mod - 1), (mod - 1) * (mod - 2), (mod - 1) * mul,
		1 << 31, 1<<32 - 1, 1<<32 + 1, 1 << 61,
	} {
		if got, want := reduce(p), p%mod; got != want {
			t.Errorf("reduce(%d) = %d, want %d", p, got, want)
		}
	}
}

// FuzzSource checks any seed's first n draws against math/rand.
func FuzzSource(f *testing.F) {
	for _, s := range edgeSeeds {
		f.Add(s, uint16(draws))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		src := New(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := range int(n) {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %d, math/rand = %d", seed, i, g, w)
			}
		}
		if g, w := FirstInt63(seed), rand.NewSource(seed).Int63(); g != w {
			t.Fatalf("seed %d: FirstInt63 = %d, math/rand = %d", seed, g, w)
		}
	})
}

// BenchmarkSeed seeds a source, the per-frame cost the renderer, scene
// generator and degradation ops pay; MathRand is the baseline.
func BenchmarkSeed(b *testing.B) {
	b.Run("randsrc", func(b *testing.B) {
		var s Source
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
	b.Run("MathRand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
}
