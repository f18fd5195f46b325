package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesRandSource draws 300 values — past the 273 the
// lazy path computes, so the skipped-ahead fallback runs too — from a
// Source and from rand.NewSource for each seed, and requires equal
// streams. The seeds are random, around 0, negative, and multiples of
// 2³¹−1 (which math/rand maps to a substitute seed), and every source
// is re-seeded in between so reseeding after the fallback is covered.
func TestSourceMatchesRandSource(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, lehmerMod, -lehmerMod, 2 * lehmerMod, -5 * lehmerMod,
		lehmerMod - 1, lehmerMod + 1, -lehmerMod - 1, 89482311,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 31, -(1 << 31),
	}
	r := rand.New(rand.NewSource(29))
	for len(seeds) < 3000 {
		seeds = append(seeds, int64(r.Uint64()), r.Int63n(1<<20)-1<<19)
	}
	src := new(Source)
	for _, seed := range seeds {
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= 300; k++ {
			var got, exp uint64
			if k%3 == 0 {
				got, exp = uint64(src.Int63()), uint64(want.Int63())
			} else {
				got, exp = src.Uint64(), want.Uint64()
			}
			if got != exp {
				t.Fatalf("seed %d, draw %d: lazy source %#x, rand.NewSource %#x", seed, k, got, exp)
			}
		}
	}
}

// TestNewThroughRand checks the draws the cost model and the dataset
// take, through New and through a generator re-seeded by rand.Rand's
// Seed, against a fresh rand.New(rand.NewSource(seed)).
func TestNewThroughRand(t *testing.T) {
	reseeded := rand.New(new(Source))
	for seed := int64(-50); seed < 400; seed++ {
		got := New(seed * 7919)
		if seed%2 == 0 {
			reseeded.Seed(seed * 7919)
			got = reseeded
		}
		want := rand.New(rand.NewSource(seed * 7919))
		for k := 0; k < 40; k++ {
			a, b := got.NormFloat64(), want.NormFloat64()
			c, d := got.Float64(), want.Float64()
			i, j := got.Intn(300), want.Intn(300)
			if math.Float64bits(a) != math.Float64bits(b) || math.Float64bits(c) != math.Float64bits(d) || i != j {
				t.Fatalf("seed %d, draw %d: (%v, %v, %d), fresh generator (%v, %v, %d)", seed*7919, k, a, c, i, b, d, j)
			}
		}
	}
}

func BenchmarkSeedAndDraw(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		r := rand.New(new(Source))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			r.NormFloat64()
		}
	})
	b.Run("rand.Source", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			r.NormFloat64()
		}
	})
}
