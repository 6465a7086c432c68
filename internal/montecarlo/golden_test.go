package montecarlo_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/tech"
)

// sampleStreamGolden holds the SHA-256 of every sample bit (delays,
// leakages, then weights) of the runs in TestSampleStreamGolden. A
// change to any hash means the Monte Carlo stream moved: every yield,
// quantile and sign-off number downstream moves with it.
var sampleStreamGolden = map[string]string{
	"s432/plain":    "a2fa03ced4a0c8c3bccfaf52630577e48b1cb1c4f247bd459ece3421b49aabdf",
	"s432/workers1": "a2fa03ced4a0c8c3bccfaf52630577e48b1cb1c4f247bd459ece3421b49aabdf",
	"s432/lhs":      "f3c241384c642511ebf4575be8371beda603496374bf26014bf9a260093c07a8",
	"s432/is":       "5ea2490f493745265883fa3908fdae39644234fd56971ba2244252a99833eb01",
	"s432/is-mix":   "426eec0b31b03c446ae1d4a600f11e3b2c35e9430e32c7e29ba284b837cd8606",
	"s880/plain":    "1927bb48a3aa2495a8ed43d33a1477dc96933a1f923e2bf987e7da407050471f",
	"s880/workers1": "1927bb48a3aa2495a8ed43d33a1477dc96933a1f923e2bf987e7da407050471f",
	"s880/lhs":      "b361019b01d907b9397feb91adb71fe67e94877c3751d12ea258eb195ce80d6f",
	"s880/is":       "f6de190ee60d4372431a783fe16d0caff9efaac3e4d47e9afb2c9bc882165494",
	"s880/is-mix":   "eb9d4330dbb9dc01191259beb4645b22e52d7e1cf5e72944ce09b5bc51496d6b",
	"q344/plain":    "151a88fa9d98b1ef8a5b33289ff8c5583fa5a4db912060e77ee6b4695f2d4657",
	"q344/workers1": "151a88fa9d98b1ef8a5b33289ff8c5583fa5a4db912060e77ee6b4695f2d4657",
	"q344/lhs":      "913ca6cba03b84f8df4142195f1b8fafa554defc26614a205e8efad5a5af94e8",
	"q344/is":       "a0a236e48de89627b7681d4f9d7d9874c0732c6ca850ca03b2b3a354fc9c6b22",
	"q344/is-mix":   "410074c057b7f2ecbc893013aed3a25afab4fea1f49ed2099a641daafef74f90",
}

// mixedDesign returns the named suite circuit under a fixed mixed
// assignment: every third gate high-Vth, sizes cycling through the
// first five ladder steps, so both Vth classes and several sizes are
// sampled.
func mixedDesign(t *testing.T, name string) *core.Design {
	t.Helper()
	d, err := fixture.Suite(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		if g.ID%3 == 0 {
			if err := d.SetVth(g.ID, tech.HighVth); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.SetSize(g.ID, d.Lib.Sizes[g.ID%5]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// sampleHash hashes the Float64bits of every sample of r.
func sampleHash(r *montecarlo.Result) string {
	h := sha256.New()
	var b [8]byte
	for _, xs := range [][]float64{r.DelaysPs, r.LeaksNW, r.Weights} {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSampleStreamGolden pins the Monte Carlo sample stream bit for
// bit: plain, single-worker, Latin-hypercube and importance-sampled
// runs (pure and defensive-mixture proposals) on two combinational
// circuits and one sequential circuit. The importance-sampling runs
// use an explicit shift so the hashes depend on Monte Carlo alone, not
// on SSTA.
func TestSampleStreamGolden(t *testing.T) {
	for _, name := range []string{"s432", "s880", "q344"} {
		d := mixedDesign(t, name)
		shift := make([]float64, d.Var.NumPC)
		shift[0] = 2
		if len(shift) > 1 {
			shift[1] = -1
		}
		runs := []struct {
			name string
			cfg  montecarlo.Config
		}{
			{"plain", montecarlo.Config{Samples: 300, Seed: 3}},
			{"workers1", montecarlo.Config{Samples: 300, Seed: 3, Workers: 1}},
			{"lhs", montecarlo.Config{Samples: 300, Seed: 3, Sampling: montecarlo.LatinHypercube}},
			{"is", montecarlo.Config{Samples: 300, Seed: 3, Sampling: montecarlo.ImportanceSampling,
				Shift: shift}},
			{"is-mix", montecarlo.Config{Samples: 300, Seed: 3, Sampling: montecarlo.ImportanceSampling,
				Shift: shift, MixtureLambda: 0.05}},
		}
		for _, run := range runs {
			key := name + "/" + run.name
			res, err := montecarlo.Run(d, run.cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := sampleHash(res); got != sampleStreamGolden[key] {
				t.Errorf("%s: sample hash %s, want %s", key, got, sampleStreamGolden[key])
			}
		}
	}
}
