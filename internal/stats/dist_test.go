package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{3, 0.9986501019683699},
		{-6, 9.865876450376946e-10},
	}
	for _, tc := range cases {
		if got := NormalCDF(tc.x); !almost(got, tc.want, 1e-12) {
			t.Errorf("NormalCDF(%g) = %.15g, want %.15g", tc.x, got, tc.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1 - 1e-6} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almost(got, p, 1e-12*math.Max(1, 1/p)) {
			t.Errorf("CDF(Quantile(%g)) = %.15g", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("Quantile(0)/Quantile(1) should be ∓Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.5)) || !math.IsNaN(NormalQuantile(1.5)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.99, 2.3263478740408408},
		{0.999, 3.090232306167813},
	}
	for _, tc := range cases {
		if got := NormalQuantile(tc.p); !almost(got, tc.want, 1e-10) {
			t.Errorf("NormalQuantile(%g) = %.12g, want %.12g", tc.p, got, tc.want)
		}
	}
}

func TestNormalDistribution(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 2}
	if got := n.CDF(3); !almost(got, 0.5, 1e-15) {
		t.Errorf("CDF(μ) = %g", got)
	}
	if got := n.Quantile(0.8413447460685429); !almost(got, 5, 1e-9) {
		t.Errorf("Quantile(Φ(1)) = %g, want 5", got)
	}
	z := Normal{Mu: 1, Sigma: 0}
	if z.CDF(0.999) != 0 || z.CDF(1) != 1 {
		t.Error("degenerate normal CDF wrong")
	}
}

func TestLognormalMoments(t *testing.T) {
	l := Lognormal{Mu: 0.5, Sigma: 0.8}
	wantMean := math.Exp(0.5 + 0.32)
	if got := l.Mean(); !almost(got, wantMean, 1e-12) {
		t.Errorf("Mean = %g, want %g", got, wantMean)
	}
	median := math.Exp(l.Mu)
	if got := l.Quantile(0.5); !almost(got, median, 1e-9) {
		t.Errorf("Quantile(0.5) = %g, want median %g", got, median)
	}
}

func TestLognormalFromMomentsRoundTrip(t *testing.T) {
	f := func(muRaw, sigRaw float64) bool {
		mu := math.Mod(math.Abs(muRaw), 4) - 2   // [-2,2)
		sigma := math.Mod(math.Abs(sigRaw), 1.5) // [0,1.5)
		if math.IsNaN(mu) || math.IsNaN(sigma) {
			return true
		}
		l := Lognormal{Mu: mu, Sigma: sigma}
		s2 := sigma * sigma
		got, err := LognormalFromMoments(l.Mean(), (math.Exp(s2)-1)*math.Exp(2*mu+s2))
		if err != nil {
			return false
		}
		return almost(got.Mu, l.Mu, 1e-9) && almost(got.Sigma, l.Sigma, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if _, err := LognormalFromMoments(-1, 1); err == nil {
		t.Error("negative mean accepted")
	}
	if _, err := LognormalFromMoments(1, -1); err == nil {
		t.Error("negative variance accepted")
	}
}

func TestClarkMaxAgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ mu1, s1, mu2, s2, rho float64 }{
		{0, 1, 0, 1, 0},
		{0, 1, 0, 1, 0.8},
		{1, 0.5, 0, 1, -0.5},
		{5, 2, 3, 0.5, 0.3},
		{-2, 1, 2, 1, 0},
	}
	const n = 400000
	for _, tc := range cases {
		got := ClarkMax(tc.mu1, tc.s1, tc.mu2, tc.s2, tc.rho)
		var sum, sum2, tight float64
		for i := 0; i < n; i++ {
			z1 := rng.NormFloat64()
			z2 := tc.rho*z1 + math.Sqrt(1-tc.rho*tc.rho)*rng.NormFloat64()
			x := tc.mu1 + tc.s1*z1
			y := tc.mu2 + tc.s2*z2
			m := math.Max(x, y)
			sum += m
			sum2 += m * m
			if x >= y {
				tight++
			}
		}
		mcMean := sum / n
		mcVar := sum2/n - mcMean*mcMean
		mcTight := tight / n
		if !almost(got.Mean, mcMean, 0.01*(1+math.Abs(mcMean))) {
			t.Errorf("case %+v: mean %g vs MC %g", tc, got.Mean, mcMean)
		}
		if !almost(got.Variance, mcVar, 0.03*(1+mcVar)) {
			t.Errorf("case %+v: var %g vs MC %g", tc, got.Variance, mcVar)
		}
		if !almost(got.Tightness, mcTight, 0.01) {
			t.Errorf("case %+v: tightness %g vs MC %g", tc, got.Tightness, mcTight)
		}
	}
}

func TestClarkMaxProperties(t *testing.T) {
	// E[max] >= max of means; degenerate cases pick the larger input.
	f := func(mu1, mu2, s1Raw, s2Raw, rhoRaw float64) bool {
		if math.IsNaN(mu1) || math.IsNaN(mu2) || math.IsNaN(s1Raw) || math.IsNaN(s2Raw) || math.IsNaN(rhoRaw) {
			return true
		}
		mu1 = math.Mod(mu1, 100)
		mu2 = math.Mod(mu2, 100)
		s1 := math.Mod(math.Abs(s1Raw), 10)
		s2 := math.Mod(math.Abs(s2Raw), 10)
		rho := math.Mod(rhoRaw, 1)
		r := ClarkMax(mu1, s1, mu2, s2, rho)
		if r.Mean < math.Max(mu1, mu2)-1e-9 {
			return false
		}
		if r.Variance < -1e-12 {
			return false
		}
		return r.Tightness >= 0 && r.Tightness <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Exact degenerate: identical deterministic inputs.
	r := ClarkMax(2, 0, 1, 0, 0)
	if r.Mean != 2 || r.Variance != 0 || r.Tightness != 1 {
		t.Errorf("degenerate max = %+v", r)
	}
}

func TestClarkMaxDominance(t *testing.T) {
	// When X stochastically dominates Y by a wide margin, max ≈ X.
	r := ClarkMax(100, 1, 0, 1, 0)
	if !almost(r.Mean, 100, 1e-6) || !almost(r.Variance, 1, 1e-6) || !almost(r.Tightness, 1, 1e-9) {
		t.Errorf("dominant max = %+v, want ~N(100,1), T=1", r)
	}
}
