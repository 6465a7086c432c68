// Fixture: every way a stochastic path can lose replayability, next
// to the approved seeded idiom.
package a

import (
	"math/rand"
	randv2 "math/rand/v2"
	"os"
	"time"

	"repro/internal/stats"
)

func globalStream() {
	_ = rand.Intn(10)      // want `use of global math/rand\.Intn`
	_ = rand.Float64()     // want `use of global math/rand\.Float64`
	_ = rand.NormFloat64() // want `use of global math/rand\.NormFloat64`
	rand.Shuffle(3, func(i, j int) {}) // want `use of global math/rand\.Shuffle`
	rand.Seed(42)          // want `use of global math/rand\.Seed`
}

func timeSeeded() *rand.Rand {
	src := rand.NewSource(time.Now().UnixNano()) // want `RNG seed derived from time\.`
	return rand.New(src)
}

func entropySeeded() *rand.Rand {
	return rand.New(rand.NewSource(int64(os.Getpid()))) // want `RNG seed derived from os\.`
}

func arithmeticOnTime(k int64) *rand.Rand {
	return rand.New(rand.NewSource(7919*k + time.Now().Unix())) // want `RNG seed derived from time\.`
}

func reseededFromClock(rng *rand.Rand) float64 {
	rng.Seed(time.Now().UnixNano()) // want `RNG seed derived from time\.`
	return rng.NormFloat64()
}

func reseededSource(src rand.Source) {
	src.Seed(int64(os.Getpid())) // want `RNG seed derived from os\.`
}

func reseededPCG(pcg *randv2.PCG) {
	pcg.Seed(uint64(time.Now().UnixNano()), 1) // want `RNG seed derived from time\.`
}

func perDieFromClock(cfg struct{ Seed int64 }) *rand.Rand {
	rng := rand.New(stats.NewSource(time.Now().UnixNano())) // want `RNG seed derived from time\.`
	src := stats.NewSource(cfg.Seed)
	src.Seed(int64(os.Getpid())) // want `RNG seed derived from os\.`
	return rng
}

// seeded is the approved idiom: the seed arrives from configuration.
func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed + 7919))
	return rng.NormFloat64() // method on a local *rand.Rand: fine
}
