package stats

import "math/rand"

// Source is math/rand's additive lagged-Fibonacci generator, the
// source rand.NewSource returns, with a faster Seed. For every seed
// it draws the same stream bit for bit, so rand.New(NewSource(s))
// replays rand.New(rand.NewSource(s)) and a sampler can switch to it
// without moving a sample. It implements rand.Source64. A Source is
// not safe for concurrent use.
//
// The generator keeps its last 607 outputs and draws
//
//	x_n = x_{n−607} + x_{n−273} (mod 2⁶⁴),
//
// storing x_n over x_{n−607}: feed indexes that word and tap the one
// 273 draws old, both stepping down through the ring. math/rand seeds
// it by running the Lehmer generator x_{n+1} = 48271·x_n mod (2³¹−1)
// from the seed for 20 discarded steps and then three steps per word,
// 1,841 dependent steps in all, each word packing its three states at
// bit offsets 40, 20 and 0 and XORed with a fixed "cooked" word. Seed
// computes each state directly, x_n = x_0·48271ⁿ mod (2³¹−1), from a
// table of powers: 1,821 independent products the CPU overlaps instead
// of a serial chain.
type Source struct {
	tap, feed int
	vec       [lfLen]int64
}

const (
	lfLen = 607 // words of state, the long lag
	lfTap = 273 // the short lag

	lcgMod  = 1<<31 - 1 // the seeding generator's modulus, a Mersenne prime
	lcgMul  = 48271     // its multiplier
	lcgSkip = 20        // steps math/rand discards before the first word
	// lcgZero replaces a seed ≡ 0 (mod 2³¹−1): 0 is a fixed point of
	// the seeding generator.
	lcgZero = 89482311
)

var (
	// lcgPow[i][j] = 48271^(lcgSkip+1+3i+j) mod (2³¹−1): the
	// multiplier taking the seed to the state that the j-th part of
	// word i packs.
	lcgPow [lfLen][3]uint64
	// cooked is math/rand's table of cooked words, recovered by
	// initCooked from the library's own generator.
	cooked [lfLen]int64
)

func init() {
	p := uint64(1)
	for range lcgSkip + 1 {
		p = mulMod(p, lcgMul)
	}
	for i := range lcgPow {
		for j := range lcgPow[i] {
			lcgPow[i][j] = p
			p = mulMod(p, lcgMul)
		}
	}
	initCooked()
}

// initCooked recovers the cooked words from rand.NewSource(1). Its
// first 607 draws write each word of the state exactly once, so they
// are its whole state; undoing the draws newest first walks it back to
// the state Seed(1) built, and XORing out seed 1's packed Lehmer
// states leaves the cooked words.
func initCooked() {
	src := rand.NewSource(1).(rand.Source64)
	s := Source{feed: lfLen - lfTap} // where Seed leaves tap and feed
	for range lfLen {
		s.Uint64() // steps tap and feed as the library's draw does
		s.vec[s.feed] = int64(src.Uint64())
	}
	// 607 steps bring tap and feed back to where they started; undo the
	// draws from the last one back.
	for range lfLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % lfLen
		s.feed = (s.feed + 1) % lfLen
	}
	var lcg Source
	lcg.Seed(1) // cooked is still zero: the packed Lehmer states alone
	for i := range cooked {
		cooked[i] = s.vec[i] ^ lcg.vec[i]
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−1), without a
// division: 2³¹ ≡ 1, so folding the high bits onto the low bits twice
// reduces the product. The fold is exact because the modulus is prime:
// a·b is never a multiple of it, so the result is never 0 or 2³¹−1.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	return p&lcgMod + p>>31
}

// NewSource returns a Source seeded with seed, as rand.NewSource
// returns one.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed sets the state math/rand's Seed sets for seed: the seed is
// reduced modulo 2³¹−1 into [1, 2³¹−1), with 0 standing for 89482311.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = lfLen - lfTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZero
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &lcgPow[i]
		u := mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit word of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next word with its top bit cleared.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
