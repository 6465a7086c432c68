// Package ssta implements block-based statistical static timing
// analysis in the canonical first-order delay model: every timing
// quantity is
//
//	X = Mean + Σₖ Sens[k]·Zₖ + Rand·R
//
// where Z is the shared global variation vector (die-to-die plus the
// spatial principal components from package variation) and R is a
// private standard normal. Sums add sensitivities exactly; the max of
// two canonical forms is re-Gaussianized with Clark's moments, with
// sensitivities blended by the tightness probability — the standard
// SSTA construction the paper's statistical optimizer runs on.
package ssta

import (
	"math"

	"repro/internal/stats"
)

// Canonical is a first-order Gaussian form over the global variation
// vector plus an independent residual.
type Canonical struct {
	Mean float64
	Sens []float64 // loadings on the globals Z
	Rand float64   // σ of the private residual (non-negative)
}

// NewCanonical returns a deterministic canonical form with the given
// number of global components.
func NewCanonical(mean float64, numPC int) Canonical {
	return Canonical{Mean: mean, Sens: make([]float64, numPC)}
}

// Variance returns the total variance.
func (c Canonical) Variance() float64 {
	v := c.Rand * c.Rand
	for _, s := range c.Sens {
		v += s * s
	}
	return v
}

// Sigma returns the standard deviation.
func (c Canonical) Sigma() float64 { return math.Sqrt(c.Variance()) }

// Normal returns the marginal distribution of the form.
func (c Canonical) Normal() stats.Normal { return stats.Normal{Mu: c.Mean, Sigma: c.Sigma()} }

// Clone deep-copies the form.
func (c Canonical) Clone() Canonical {
	return Canonical{Mean: c.Mean, Sens: append([]float64(nil), c.Sens...), Rand: c.Rand}
}

// Covariance returns Cov(a,b) under the model: global sensitivities
// are shared; private residuals of distinct forms are independent.
func Covariance(a, b Canonical) float64 {
	cov := 0.0
	bs := b.Sens[:len(a.Sens)] // one bounds proof for the whole dot
	for k, s := range a.Sens {
		cov += s * bs[k]
	}
	return cov
}

// Correlation returns the correlation coefficient of two forms (0 if
// either is deterministic).
func Correlation(a, b Canonical) float64 {
	va, vb := a.Variance(), b.Variance()
	if stats.EqZero(va) || stats.EqZero(vb) {
		return 0
	}
	rho := Covariance(a, b) / math.Sqrt(va*vb)
	if rho > 1 {
		rho = 1
	}
	if rho < -1 {
		rho = -1
	}
	return rho
}

// Add returns a+b, treating the private residuals as independent.
func Add(a, b Canonical) Canonical {
	out := Canonical{
		Mean: a.Mean + b.Mean,
		Sens: make([]float64, len(a.Sens)),
		Rand: math.Hypot(a.Rand, b.Rand),
	}
	for k := range a.Sens {
		out.Sens[k] = a.Sens[k] + b.Sens[k]
	}
	return out
}

// Max returns the canonical approximation of max(a,b): Clark's mean
// and variance, sensitivities blended by the tightness probability
// T = P(a ≥ b), and the private residual set to absorb whatever
// variance the blended sensitivities do not explain.
func Max(a, b Canonical) Canonical {
	out := Canonical{Sens: make([]float64, len(a.Sens))}
	maxInto(&out, a, b)
	return out
}

// maxInto computes Max(a,b) into dst, whose Sens must already have the
// right length. dst may alias a (each Sens slot is read before it is
// written), which is what lets the incremental timer fold a max chain
// in place with zero allocation. The arithmetic is expression-for-
// expression the historical Max — each input variance is just computed
// once instead of twice — so results are bitwise unchanged.
func maxInto(dst *Canonical, a, b Canonical) {
	va, vb := a.Variance(), b.Variance()
	sa, sb := math.Sqrt(va), math.Sqrt(vb)
	rho := 0.0
	if !stats.EqZero(va) && !stats.EqZero(vb) {
		rho = Covariance(a, b) / math.Sqrt(va*vb)
		if rho > 1 {
			rho = 1
		}
		if rho < -1 {
			rho = -1
		}
	}
	m := stats.ClarkMax(a.Mean, sa, b.Mean, sb, rho)
	t := m.Tightness
	// Hoisting 1−t (the same pure value every iteration) and proving
	// the three slices congruent up front changes no result bits; it
	// only removes per-element bounds checks from the blend loop.
	omt := 1 - t
	bs := b.Sens[:len(a.Sens)]
	ds := dst.Sens[:len(a.Sens)]
	explained := 0.0
	for k, av := range a.Sens {
		s := t*av + omt*bs[k]
		ds[k] = s
		explained += s * s
	}
	dst.Mean = m.Mean
	resid := m.Variance - explained
	if resid > 0 {
		dst.Rand = math.Sqrt(resid)
	} else {
		// Blended sensitivities over-explain the Clark variance (can
		// happen when the inputs are nearly perfectly correlated);
		// rescale them to match it exactly.
		dst.Rand = 0
		if explained > 0 {
			scale := math.Sqrt(m.Variance / explained)
			for k := range dst.Sens {
				dst.Sens[k] *= scale
			}
		}
	}
}

// copyInto overwrites dst with a value copy of src; dst.Sens must
// already have the right length.
func copyInto(dst *Canonical, src Canonical) {
	dst.Mean = src.Mean
	copy(dst.Sens, src.Sens)
	dst.Rand = src.Rand
}
