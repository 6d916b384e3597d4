// Package randsrc is a copy of math/rand's default source that seeds
// without a serial chain of divisions. rand.New(randsrc.New(seed))
// produces exactly the streams of rand.New(rand.NewSource(seed)):
// every Int63, Uint64, Float64, Intn, Perm, Shuffle and NormFloat64.
// The renderer, the scene generator and the degradation ops seed a
// source per frame, so seeding is on the corpus-build hot path, and the
// simulated models' answer draw reads the first value of a seeded
// source in closed form (FirstInt63).
//
// math/rand seeds its 607-word lagged Fibonacci register from the
// Lehmer generator x ← 48271·x mod (2³¹−1): after 20 discarded steps,
// word i packs the outputs at steps 21+3i, 22+3i and 23+3i and XORs in
// the constant cooked[i]. math/rand walks the 1,841 steps one
// dependent division at a time. Here jump[i] = 48271^(21+3i) mod
// (2³¹−1) reaches each word's first step in one multiply, so the words
// are independent, and every product is reduced with two Mersenne folds
// (p mod 2³¹−1 ≡ p&M + p>>31) instead of a division.
package randsrc

const (
	// length and tap are math/rand's register length and tap distance.
	length = 607
	tap    = 273
	// mod is the Lehmer modulus 2³¹−1; mul its multiplier.
	mod = 1<<31 - 1
	mul = 48271
	// zeroSeed replaces a seed that normalises to 0.
	zeroSeed = 89482311
	mask63   = 1<<63 - 1
)

// jump[i] is mul^(21+3i) mod mod: one multiply takes a normalised seed
// to the first Lehmer step packed into word i.
var jump = func() (t [length]uint64) {
	x := uint64(1)
	for step := 1; step <= 21+3*(length-1); step++ {
		x = x * mul % mod
		if step >= 21 && (step-21)%3 == 0 {
			t[(step-21)/3] = x
		}
	}
	return t
}()

// Source is math/rand's default source. It implements rand.Source64.
// The zero value is not seeded; use New or Seed. A Source is not safe
// for concurrent use.
type Source struct {
	tap, feed int
	vec       [length]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - tap
	x := normalize(seed)
	for i := range s.vec {
		s.vec[i] = word(x, i)
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & mask63)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Float64 returns rand.Rand.Float64's value in [0,1) without the
// interface call: it redraws a quotient that rounds to 1, as math/rand
// does.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// FirstInt63 returns New(seed).Int63() without seeding a source: the
// first draw adds only words 333 and 606 of the register.
func FirstInt63(seed int64) int64 {
	x := normalize(seed)
	return (word(x, length-tap-1) + word(x, length-1)) & mask63
}

// normalize maps a seed to the Lehmer state math/rand seeds from: seed
// mod 2³¹−1, made non-negative, with 0 replaced by zeroSeed.
func normalize(seed int64) uint64 {
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// word returns register word i for the normalised seed x: three
// consecutive Lehmer outputs packed 40/20/0 bits apart, XOR cooked[i].
func word(x uint64, i int) int64 {
	a := reduce(x * jump[i])
	b := reduce(a * mul)
	c := reduce(b * mul)
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ cooked[i]
}

// reduce returns p mod 2³¹−1 for a product p ≤ (2³¹−2)² of two
// non-zero residues. As 2³¹ ≡ 1, each fold p&M + p>>31 keeps the
// residue: the first leaves p below 2³²−4, the second at most 2³¹−1.
// The prime 2³¹−1 divides no product of non-zero residues, so the
// result is never 2³¹−1 or 0: it is the exact residue.
func reduce(p uint64) uint64 {
	p = p&mod + p>>31
	return p&mod + p>>31
}
