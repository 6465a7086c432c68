package yield_test

import (
	"math"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ssta"
)

// The SSTA timing-yield curve places the constraints the estimators of
// this package run at (through Quantile) and their importance-sampling
// shift. These two tests pin what that relies on: Yield inverts
// Quantile, and Yield rises with the constraint.

func TestTimingMatchesSSTA(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if y := r.Yield(r.Quantile(0.9)); math.Abs(y-0.9) > 1e-9 {
		t.Errorf("Timing yield %g, want 0.9", y)
	}
}

func TestCurveMonotone(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	mean := r.Delay.Mean
	prev := 0.0
	for i, tmax := range []float64{mean - 100, mean, mean + 100, mean + 300} {
		y := r.Yield(tmax)
		if y < prev {
			t.Errorf("yield curve not monotone at %d", i)
		}
		prev = y
	}
}
