// Package lazyrand provides a math/rand source that draws exactly what
// rand.NewSource(seed) draws, for a Seed that costs nothing. It serves
// the callers that seed a generator per key and take a few draws from
// it: the cost model's per-activation draws and the dataset's metadata
// lookups, where filling math/rand's 607-word register dominated.
//
// math/rand's generator is an additive lagged Fibonacci register of 607
// words: draw k (from 1) returns vec[feed] + vec[tap] and stores it in
// vec[feed], where feed = 334 − k and tap = 607 − k, modulo 607. Seed
// fills every word from a Lehmer sequence x ← 48271·x mod (2³¹−1)
// started at the reduced seed x₀, so xₙ = x₀·48271ⁿ, and word i is
//
//	x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ cooked[i]
//
// for a fixed table cooked. The first 273 draws write words 333…61 and
// read words 606…334, so each of them is the sum of two words as Seed
// left them — six multiply-mods — and the 607-word fill is never needed.
package lazyrand

import "math/rand"

const (
	lehmerMod  = 1<<31 - 1
	lehmerMul  = 48271
	rngLen     = 607
	rngTap     = 273
	rngFeed    = rngLen - rngTap
	lazyDraws  = rngTap
	lehmerSkip = 20 // Lehmer steps Seed takes before word 0
)

var (
	// lehmerPow[n] is 48271ⁿ mod (2³¹−1); word 606 reads n = 1841.
	lehmerPow [lehmerSkip + 3*rngLen + 1]uint64
	// cooked is the table Seed XORs into the words.
	cooked [rngLen]uint64
)

// init derives cooked from math/rand itself: the first 607 outputs of
// rand.NewSource(1) determine every word Seed(1) leaves, and a word
// XOR its Lehmer part for x₀ = 1 is the cooked entry.
func init() {
	p := uint64(1)
	for n := range lehmerPow {
		lehmerPow[n] = p
		p = p * lehmerMul % lehmerMod
	}
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64 // out[k] is draw k
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	// Draws 274…607 read, at tap 333…0, the sum draw k−273 stored there,
	// and at feed 60…0 then 606…334 a word as seeded; draws 1…273 read
	// two seeded words.
	var vec [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		feed := (rngFeed - k + rngLen) % rngLen
		vec[feed] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngFeed-k] = out[k] - vec[rngLen-k]
	}
	for i := range vec {
		cooked[i] = vec[i] ^ lehmerWord(1, i)
	}
}

// lehmerWord is word i's Lehmer part for the reduced seed x0.
func lehmerWord(x0 uint64, i int) uint64 {
	n := lehmerSkip + 3*i
	return x0*lehmerPow[n+1]%lehmerMod<<40 ^
		x0*lehmerPow[n+2]%lehmerMod<<20 ^
		x0*lehmerPow[n+3]%lehmerMod
}

// Source is a rand.Source64 whose every draw equals
// rand.NewSource(seed)'s: each of the first 273 draws after Seed
// computes the two seeded words it reads. Past them, or for a seed that
// reduces to 0 (math/rand substitutes another), it seeds a real source
// and skips it ahead. The zero Source must be seeded before use.
type Source struct {
	seed int64
	x0   uint64 // seed mod 2³¹−1 in [1, 2³¹−2]; 0 takes the real source
	n    int    // draws since Seed
	tail rand.Source64
	live bool // tail is seeded and has drawn n
}

// New returns a generator over a Source seeded with seed: the stream of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed starts the stream rand.NewSource(seed) draws.
func (s *Source) Seed(seed int64) {
	x := seed % lehmerMod
	if x < 0 {
		x += lehmerMod
	}
	*s = Source{seed: seed, x0: uint64(x), tail: s.tail}
}

// Uint64 returns the next draw.
func (s *Source) Uint64() uint64 {
	if s.n < lazyDraws && s.x0 != 0 {
		s.n++
		return s.word(rngFeed-s.n) + s.word(rngLen-s.n)
	}
	if !s.live {
		if s.tail == nil {
			s.tail = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.tail.Seed(s.seed)
		}
		for i := 0; i < s.n; i++ {
			s.tail.Uint64()
		}
		s.live = true
	}
	s.n++
	return s.tail.Uint64()
}

// Int63 returns the next draw with its top bit cleared, as math/rand's
// source does.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// word is register word i as Seed leaves it.
func (s *Source) word(i int) uint64 { return lehmerWord(s.x0, i) ^ cooked[i] }
