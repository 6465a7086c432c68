package abb_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/abb"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/ssta"
	"repro/internal/tech"
)

// dieStreamGolden holds the SHA-256 of every per-die result of the
// runs in TestDieStreamGolden. A change to any hash means the ABB die
// stream moved: Extension E1's rows move with it.
var dieStreamGolden = map[string]string{
	"s432/seed11": "a277704324f1d2d7194a49e6d59bb360881d9ccaee0e61a1fd30808e0aee22dc",
	"s880/seed3":  "bbe99a1822c33aa0509694419576defa1a3bbc6999d6e0f4bc7cbe175fd4b257",
	"q344/seed5":  "f4da2f8c159d631f51ce861ec46278676cfe3c1b69b3251f959257a0e9a177c4",
}

// dieHash hashes the Float64bits of every field of every die of r,
// and each die's Met flag as one byte.
func dieHash(r *abb.Result) string {
	h := sha256.New()
	var b [8]byte
	for _, d := range r.Dies {
		for _, x := range []float64{d.BiasV, d.DelayNoBias, d.LeakNoBias, d.DelayBiased, d.LeakBiased} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		met := byte(0)
		if d.Met {
			met = 1
		}
		h.Write([]byte{met})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDieStreamGolden pins the ABB sampler's dies bit for bit, the way
// TestSampleStreamGolden pins Monte Carlo's: two combinational
// circuits and one sequential circuit under a mixed Vth assignment,
// each at the delay SSTA puts at Y = 90%, so dies both de-leak under
// reverse bias and need forward bias.
func TestDieStreamGolden(t *testing.T) {
	for _, run := range []struct {
		name string
		seed int64
	}{{"s432", 11}, {"s880", 3}, {"q344", 5}} {
		d, err := fixture.Suite(run.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range d.Circuit.Gates() {
			if g.Type != logic.Input && g.ID%3 == 0 {
				if err := d.SetVth(g.ID, tech.HighVth); err != nil {
					t.Fatal(err)
				}
			}
		}
		sr, err := ssta.Analyze(d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := abb.Run(d, abb.DefaultConfig(), sr.Quantile(0.90), 100, run.seed)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s/seed%d", run.name, run.seed)
		if got := dieHash(res); got != dieStreamGolden[key] {
			t.Errorf("%s: die hash %s, want %s", key, got, dieStreamGolden[key])
		}
	}
}
