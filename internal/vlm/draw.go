package vlm

import "nbhd/internal/randsrc"

// The simulated models answer with the first Float64 of a freshly
// seeded math/rand source. Seeding that source fills a 607-word
// register, but the first draw reads only two of its words, so
// firstFloat64 takes randsrc.FirstInt63, which computes those two words
// directly; internal/randsrc holds the repository's one copy of
// math/rand's generator and pins it to math/rand.

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64() without
// building the source.
func firstFloat64(seed int64) float64 {
	if f, ok := int63Float(randsrc.FirstInt63(seed)); ok {
		return f
	}
	// Float64 redraws a value that rounds to 1; the later draws need
	// the whole register.
	return randsrc.New(seed).Float64()
}

// int63Float converts an Int63 to Float64's [0,1) value; ok is false
// when the quotient rounds to 1, which Float64 rejects and redraws.
func int63Float(v int64) (f float64, ok bool) {
	f = float64(v) / (1 << 63)
	return f, f != 1
}
