package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand pins Source to math/rand's stream: for
// every seed, a *rand.Rand over a Source draws exactly what one over
// rand.NewSource draws, through Uint64, Int63, Float64 and
// NormFloat64. The Source is re-seeded from seed to seed, as the
// samplers re-seed theirs per die, and each reference is fresh. The
// seeds cover the reduction modulo 2³¹−1 (0 and its multiples map to
// 89482311, negative seeds wrap) and the per-die stream seeds.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lcgZero, lcgMod, 2 * lcgMod, math.MinInt64, math.MaxInt64}
	for i := range 100 {
		seeds = append(seeds, StreamSeed(3, i))
	}
	got := rand.New(NewSource(42))
	const draws = 2000
	for _, seed := range seeds {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := range draws {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
		for i := range draws {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
		for i := range draws {
			if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
			}
		}
		for i := range draws {
			if g, w := got.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, i, g, w)
			}
		}
	}
}

// TestMulMod checks the division-free reduction against the % operator
// at the ends of its domain and along the seeding generator's orbit.
func TestMulMod(t *testing.T) {
	check := func(a, b uint64) {
		if got, want := mulMod(a, b), a*b%lcgMod; got != want {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
	for _, a := range []uint64{1, 2, lcgMul, 1 << 30, lcgMod - 2, lcgMod - 1} {
		for _, b := range []uint64{1, 2, lcgMul, 1 << 30, lcgMod - 2, lcgMod - 1} {
			check(a, b)
		}
	}
	x := uint64(1)
	for range 100000 {
		check(x, lcgMul)
		x = x * lcgMul % lcgMod
	}
}

// BenchmarkSeed prices one re-seed, the per-die cost of the samplers'
// stream: math/rand's serial seeding chain against Source's direct
// powers.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := range b.N {
			src.Seed(int64(i))
		}
	})
	b.Run("stats", func(b *testing.B) {
		src := NewSource(1)
		for i := range b.N {
			src.Seed(int64(i))
		}
	})
}
