package vlm

import "math/rand"

// The simulated models answer with the first Float64 of a freshly
// seeded math/rand source. Seeding that source fills a 607-word table,
// but the first draw reads only two of its words, vec[333] and vec[606],
// so firstFloat64 computes those two words directly.
//
// math/rand seeds with the Lehmer generator x ← 48271·x mod (2³¹−1):
// after 20 discarded steps, vec[i] packs the three outputs at steps
// 21+3i, 22+3i and 23+3i and XORs in the constant rngCooked[i]. The two
// cooked constants below are copied from the Go distribution's
// src/math/rand/rng.go, which carries this notice:
//
//	Copyright 2009 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the LICENSE file.
const (
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
	// zeroSeed replaces a seed that normalises to 0.
	zeroSeed = 89482311
	// jump333 and jump606 are lehmerMul^(21+3i) mod lehmerMod for
	// i = 333 and 606: one multiply reaches each word's first step.
	jump333 = 2082024995
	jump606 = 933195560
	// cooked333 and cooked606 are rngCooked[333] and rngCooked[606].
	cooked333 = -4633371852008891965
	cooked606 = 4152330101494654406
)

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64() without
// building the source.
func firstFloat64(seed int64) float64 {
	if f, ok := int63Float(firstInt63(seed)); ok {
		return f
	}
	// Float64 redraws a value that rounds to 1; the later draws need
	// the whole table.
	return rand.New(rand.NewSource(seed)).Float64()
}

// firstInt63 returns the first Int63 of rand.NewSource(seed).
func firstInt63(seed int64) int64 {
	// Normalise exactly as math/rand's rngSource.Seed does.
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	a := seedWord(x*jump333%lehmerMod) ^ cooked333
	b := seedWord(x*jump606%lehmerMod) ^ cooked606
	return (a + b) & (1<<63 - 1)
}

// seedWord packs three consecutive Lehmer outputs, starting with x, into
// one table word the way rngSource.Seed does (before the cooked XOR).
func seedWord(x uint64) int64 {
	y := x * lehmerMul % lehmerMod
	z := y * lehmerMul % lehmerMod
	return int64(x)<<40 ^ int64(y)<<20 ^ int64(z)
}

// int63Float converts an Int63 to Float64's [0,1) value; ok is false
// when the quotient rounds to 1, which Float64 rejects and redraws.
func int63Float(v int64) (f float64, ok bool) {
	f = float64(v) / (1 << 63)
	return f, f != 1
}
