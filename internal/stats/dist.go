// Package stats provides the probability and statistics substrate used
// throughout the library: the normal and lognormal distributions with
// accurate inverse CDFs, Clark's moment-matching formulas for the
// maximum of two correlated Gaussians (the SSTA workhorse), lognormal
// moment matching for leakage sums (Wilkinson's method), and empirical
// sample statistics for Monte Carlo post-processing.
package stats

import (
	"fmt"
	"math"
)

// 1/√2 and √(2π), precomputed for the hot paths.
var (
	invSqrt2 = 1 / math.Sqrt2
	sqrt2Pi  = math.Sqrt(2 * math.Pi)
)

// NormalPDF returns the standard normal density φ(x).
func NormalPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / sqrt2Pi
}

// NormalCDF returns the standard normal distribution Φ(x), computed
// from the complementary error function for full double accuracy in
// both tails.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x*invSqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0,1). It uses Acklam's
// rational approximation refined by one Halley step against the exact
// erfc-based CDF, giving ~1e-15 relative accuracy — plenty for
// 99.9th-percentile leakage targets.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		if EqZero(p) {
			return math.Inf(-1)
		}
		if EqExact(p, 1) {
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement.
	e := NormalCDF(x) - p
	u := e * sqrt2Pi * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// Normal is a Gaussian distribution N(Mu, Sigma²).
type Normal struct {
	Mu    float64
	Sigma float64
}

// CDF returns P(X ≤ x).
func (n Normal) CDF(x float64) float64 {
	if EqZero(n.Sigma) {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return NormalCDF((x - n.Mu) / n.Sigma)
}

// Quantile returns the p-quantile.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*NormalQuantile(p)
}

// String formats the distribution.
func (n Normal) String() string { return fmt.Sprintf("N(μ=%.4g, σ=%.4g)", n.Mu, n.Sigma) }

// Lognormal is exp(N(Mu, Sigma²)): the distribution of a quantity that
// is exponential in a Gaussian process parameter — e.g. subthreshold
// leakage in channel length.
type Lognormal struct {
	Mu    float64 // mean of the underlying normal
	Sigma float64 // std dev of the underlying normal
}

// Mean returns E[X] = exp(μ + σ²/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Quantile returns the p-quantile exp(μ + σ·Φ⁻¹(p)).
func (l Lognormal) Quantile(p float64) float64 {
	return math.Exp(l.Mu + l.Sigma*NormalQuantile(p))
}

// String formats the distribution.
func (l Lognormal) String() string {
	return fmt.Sprintf("LogN(μ=%.4g, σ=%.4g; mean=%.4g)", l.Mu, l.Sigma, l.Mean())
}

// LognormalFromMoments fits a lognormal to a given mean and variance
// by moment matching (the core step of Wilkinson's method for sums of
// lognormals). mean must be positive and variance non-negative.
func LognormalFromMoments(mean, variance float64) (Lognormal, error) {
	if mean <= 0 {
		return Lognormal{}, fmt.Errorf("stats: LognormalFromMoments: mean %g must be > 0", mean)
	}
	if variance < 0 {
		return Lognormal{}, fmt.Errorf("stats: LognormalFromMoments: variance %g must be >= 0", variance)
	}
	// σ² = ln(1 + var/mean²); μ = ln(mean) − σ²/2.
	s2 := math.Log1p(variance / (mean * mean))
	return Lognormal{Mu: math.Log(mean) - s2/2, Sigma: math.Sqrt(s2)}, nil
}

// MaxResult carries the moment-matched Gaussian approximation of
// max(X,Y) for correlated Gaussians X and Y, plus Clark's "tightness"
// probability T = P(X ≥ Y), which SSTA uses to blend sensitivities.
type MaxResult struct {
	Mean      float64
	Variance  float64
	Tightness float64 // P(X >= Y)
}

// ClarkMax computes the first two moments of max(X,Y) where
// X~N(mu1,s1²), Y~N(mu2,s2²) with correlation rho, using Clark's 1961
// formulas. Degenerate cases (θ≈0, i.e. the difference X−Y is almost
// deterministic) fall back to picking the larger mean.
func ClarkMax(mu1, s1, mu2, s2, rho float64) MaxResult {
	theta2 := s1*s1 + s2*s2 - 2*rho*s1*s2
	if theta2 < 1e-24 {
		// X − Y is (numerically) deterministic: max is whichever mean
		// is larger; variance is that operand's variance.
		if mu1 >= mu2 {
			return MaxResult{Mean: mu1, Variance: s1 * s1, Tightness: 1}
		}
		return MaxResult{Mean: mu2, Variance: s2 * s2, Tightness: 0}
	}
	theta := math.Sqrt(theta2)
	alpha := (mu1 - mu2) / theta
	t := NormalCDF(alpha)
	phi := NormalPDF(alpha)
	mean := mu1*t + mu2*(1-t) + theta*phi
	m2 := (mu1*mu1+s1*s1)*t + (mu2*mu2+s2*s2)*(1-t) + (mu1+mu2)*theta*phi
	variance := m2 - mean*mean
	if variance < 0 {
		variance = 0
	}
	return MaxResult{Mean: mean, Variance: variance, Tightness: t}
}
