package montecarlo_test

import (
	"math"
	"testing"

	"repro/internal/fixture"
	"repro/internal/montecarlo"
	"repro/internal/sta"
)

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	a, err := montecarlo.Run(d, montecarlo.Config{Samples: 200, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := montecarlo.Run(d, montecarlo.Config{Samples: 200, Seed: 5, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.DelaysPs {
		if a.DelaysPs[i] != b.DelaysPs[i] || a.LeaksNW[i] != b.LeaksNW[i] {
			t.Fatalf("sample %d differs across worker counts", i)
		}
	}
	// And a different seed gives different samples.
	c, err := montecarlo.Run(d, montecarlo.Config{Samples: 200, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.DelaysPs {
		if a.DelaysPs[i] == c.DelaysPs[i] {
			same++
		}
	}
	if same > 5 {
		t.Errorf("%d/200 samples identical across seeds", same)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	d, err := fixture.C17()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := montecarlo.Run(d, montecarlo.Config{Samples: 0}); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestSamplesCenterOnNominal(t *testing.T) {
	d, err := fixture.Suite("s499")
	if err != nil {
		t.Fatal(err)
	}
	res, err := montecarlo.Run(d, montecarlo.Config{Samples: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	str, err := sta.Analyze(d, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	ds := res.DelaySummary()
	// Delay median near the nominal value (delay is ~linear in the
	// Gaussian parameters, so the median ≈ nominal).
	if math.Abs(ds.P50-str.MaxDelay)/str.MaxDelay > 0.05 {
		t.Errorf("MC delay median %g vs nominal %g", ds.P50, str.MaxDelay)
	}
	// Leakage mean strictly above nominal (Jensen), P99 well above mean.
	nomLeak := d.TotalLeak()
	ls := res.LeakSummary()
	if ls.Mean <= nomLeak {
		t.Errorf("MC leak mean %g not above nominal %g", ls.Mean, nomLeak)
	}
	if ls.P99 <= ls.Mean*1.1 {
		t.Errorf("MC leak P99 %g not well above mean %g", ls.P99, ls.Mean)
	}
}

func TestYieldMonotoneInConstraint(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	res, err := montecarlo.Run(d, montecarlo.Config{Samples: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds := res.DelaySummary()
	prev := -1.0
	for _, tmax := range []float64{ds.Min - 1, ds.Mean, ds.P95, ds.Max + 1} {
		y := mustYield(t, res, tmax)
		if y < prev {
			t.Fatalf("yield not monotone at tmax=%g", tmax)
		}
		prev = y
	}
	if mustYield(t, res, ds.Min-1) != 0 {
		t.Error("yield below min sample must be 0")
	}
	if mustYield(t, res, ds.Max+1) != 1 {
		t.Error("yield above max sample must be 1")
	}
}

func TestQuantileAccessors(t *testing.T) {
	d, err := fixture.C17()
	if err != nil {
		t.Fatal(err)
	}
	res, err := montecarlo.Run(d, montecarlo.Config{Samples: 400, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.DelayQuantile(0.99) < res.DelayQuantile(0.5) {
		t.Error("delay quantiles not ordered")
	}
	if res.LeakQuantile(0.99) < res.LeakQuantile(0.5) {
		t.Error("leak quantiles not ordered")
	}
}

// mustYield unwraps TimingYield, failing the test on a malformed result.
func mustYield(t *testing.T, r *montecarlo.Result, tmax float64) float64 {
	t.Helper()
	y, err := r.TimingYield(tmax)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

// TestRunAllocsIndependentOfSamples: a run allocates its result
// slices and per-worker state once, and nothing per die, so the
// allocation count of a 4,000-sample run matches a 200-sample run's.
func TestRunAllocsIndependentOfSamples(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := montecarlo.Run(d, montecarlo.Config{Samples: samples, Seed: 1, Workers: 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(4000)
	if large-small > 16 {
		t.Errorf("allocations grow with samples: %g at 200, %g at 4000", small, large)
	}
}
