// Negative fixture: the repository's actual RNG idioms, which must
// stay finding-free.
package clean

import (
	"math/rand"

	"repro/internal/stats"
)

type Config struct{ Seed int64 }

// perSample derives an independent, replayable stream per sample
// index — the montecarlo/abb pattern.
func perSample(cfg Config, s int) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed + int64(s)*7919))
}

// reseeded re-seeds one worker-owned RNG per sample from the config
// seed — the montecarlo/abb per-die pattern, which replays the stream
// of a fresh source without allocating one.
func reseeded(rng *rand.Rand, cfg Config, s int) float64 {
	rng.Seed(cfg.Seed ^ int64(s)*7919)
	return rng.NormFloat64()
}

// perDie re-seeds one worker-owned RNG over a stats.Source per die
// from the config seed — the montecarlo/abb per-die pattern, which
// replays math/rand's stream without its serial seeding.
func perDie(cfg Config, dies int) float64 {
	rng := rand.New(stats.NewSource(cfg.Seed))
	sum := 0.0
	for i := 0; i < dies; i++ {
		rng.Seed(stats.StreamSeed(cfg.Seed, i))
		sum += rng.NormFloat64()
	}
	return sum
}

// xored reseeds deterministically for a sub-stream — the
// latin-hypercube pattern.
func xored(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
}

func draw(rng *rand.Rand) float64 {
	rng.Shuffle(4, func(i, j int) {})
	return rng.Float64() + rng.NormFloat64() + float64(rng.Intn(3))
}
