package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	// population variance is 4; sample (n-1) variance is 32/7
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/single-element edge cases")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.125, 15},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); !almost(got, tc.want, 1e-12) {
			t.Errorf("Percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile(empty) should be NaN")
	}
	// Percentile must not mutate its input.
	ys := []float64{3, 1, 2}
	_ = Percentile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestSummarizeAgainstNormalSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = 10 + 2*rng.NormFloat64()
	}
	s := Summarize(xs)
	if !almost(s.Mean, 10, 0.05) {
		t.Errorf("Mean = %g", s.Mean)
	}
	if !almost(s.StdDev, 2, 0.05) {
		t.Errorf("StdDev = %g", s.StdDev)
	}
	if !almost(s.P50, 10, 0.05) {
		t.Errorf("P50 = %g", s.P50)
	}
	if !almost(s.P95, 10+2*1.6448536269514722, 0.1) {
		t.Errorf("P95 = %g", s.P95)
	}
	if !almost(s.P99, 10+2*2.3263478740408408, 0.15) {
		t.Errorf("P99 = %g", s.P99)
	}
	if s.N != len(xs) || s.Min >= s.P50 || s.Max <= s.P99 {
		t.Error("summary ordering broken")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Correlation(xs, ys); !almost(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %g", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Correlation(xs, neg); !almost(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %g", got)
	}
	if got := Correlation(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("constant series correlation = %g", got)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42})
	if h.Total != 8 {
		t.Errorf("Total = %d", h.Total)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under/Over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if got := h.BinCenter(0); !almost(got, 1, 1e-12) {
		t.Errorf("BinCenter(0) = %g", got)
	}
	// Density integrates to in-range fraction: 5/8.
	sum := 0.0
	for i := range h.Counts {
		sum += h.Density(i) * 2 // bin width 2
	}
	if !almost(sum, 5.0/8.0, 1e-12) {
		t.Errorf("density integral = %g, want %g", sum, 5.0/8.0)
	}
	if _, err := NewHistogram(1, 0, 5); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
}
