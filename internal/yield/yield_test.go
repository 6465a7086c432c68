package yield_test

import (
	"math"
	"testing"

	"repro/internal/fixture"
	"repro/internal/yield"
)

func TestTimingMatchesSSTA(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	a, err := yield.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	y := a.Curve([]float64{a.R.Quantile(0.9)})[0]
	if math.Abs(y-0.9) > 1e-9 {
		t.Errorf("Timing yield %g, want 0.9", y)
	}
}

func TestCurveMonotone(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	a, err := yield.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	mean := a.R.Delay.Mean
	ys := a.Curve([]float64{mean - 100, mean, mean + 100, mean + 300})
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Errorf("yield curve not monotone at %d", i)
		}
	}
}
