// Package leakage implements the statistical full-chip leakage model:
// every gate's subthreshold leakage is a lognormal
//
//	L_i = m0_i · exp(X_i),   X_i = e_i·Z + s_i·R_i
//
// where m0_i is the nominal (assignment-dependent) leakage, e_i is the
// gate's exponent loading onto the shared variation globals Z (through
// the channel-length roll-off) and s_i collects the independent ΔLeff
// and ΔVth exponent variance. Total leakage is a sum of correlated
// lognormals; Wilkinson's method matches its first two moments with a
// single lognormal whose quantiles give the 95th/99th-percentile
// leakage the statistical optimizer minimizes.
//
// Two evaluators are provided:
//
//   - Exact: the O(n²) pairwise second moment, with exp(e_i·e_j)
//     tabulated per grid-cell pair — the reference.
//   - Accumulator: an O(k²)-per-update factored approximation using
//     exp(c) ≈ 1+c+c²/2 on the (small) pairwise exponent covariances,
//     which the optimizer updates incrementally per move.
//
// The Vth-independent gate-tunneling component is carried as a
// deterministic offset added to every statistic.
package leakage

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/stats"
)

// Analysis is a moment-matched view of the total-leakage distribution.
type Analysis struct {
	// MeanNW and StdNW are the first two moments of the total leakage
	// [nW], including the deterministic gate-leakage offset in the
	// mean.
	MeanNW float64
	StdNW  float64
	// Fit is the lognormal matched to the variational (subthreshold)
	// part of the sum.
	Fit stats.Lognormal
	// GateLeakNW is the deterministic gate-tunneling offset [nW].
	GateLeakNW float64
}

// Quantile returns the p-quantile of total leakage [nW].
func (a *Analysis) Quantile(p float64) float64 {
	return a.GateLeakNW + a.Fit.Quantile(p)
}

// CDF returns P(total ≤ x).
func (a *Analysis) CDF(x float64) float64 {
	return a.Fit.CDF(x - a.GateLeakNW)
}

// exponent carries the (assignment-independent) exponent statistics of
// one gate: loading onto the globals and the independent variance. The
// two exp factors every accumulator update needs are precomputed here
// — they depend only on placement and technology, so hoisting them out
// of the per-move hot path changes no arithmetic, just where it runs.
type exponent struct {
	e       []float64 // −β·k_roll·a_k(x,y): loading of X_i on Z
	s2ind   float64   // Var of the private part of X_i
	normE2  float64   // |e|²
	expHalf float64   // exp(½(|e|²+s²)): the E[L_i] lognormal factor
	expFull float64   // exp(|e|²+s²): the E[L_i²] diagonal factor
}

// exponents precomputes the per-gate exponent statistics. They depend
// only on placement and the technology's leakage sensitivities — not
// on the Vth/size assignment — which is what makes incremental
// optimizer updates cheap.
func exponents(d *core.Design) []exponent {
	bL, bV := d.Lib.LeakExponents()
	vm := d.Var
	n := d.Circuit.NumNodes()
	out := make([]exponent, n)
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		loads := vm.Loads(g.X, g.Y)
		e := make([]float64, len(loads))
		n2 := 0.0
		for k, a := range loads {
			e[k] = -bL * a
			n2 += e[k] * e[k]
		}
		sL := bL * vm.SigmaIndNm()
		sV := bV * vm.SigmaVthInd()
		s2 := sL*sL + sV*sV
		out[g.ID] = exponent{
			e: e, s2ind: s2, normE2: n2,
			expHalf: math.Exp(0.5 * (n2 + s2)),
			expFull: math.Exp(n2 + s2),
		}
	}
	return out
}

// Exact computes the reference moment-matched analysis with the full
// pairwise covariance sum. Every gate in a grid cell shares one loading
// row (variation.Model.Loads), so exp(e_i·e_j) depends only on the cell
// pair: it is tabulated once per call and the O(n²) pair loop reads the
// table in i<j order, so the result is bitwise that of evaluating the
// exponential per gate pair (a test pins this).
func Exact(d *core.Design) (*Analysis, error) {
	exps := exponents(d)
	var ids []int
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			ids = append(ids, g.ID)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("leakage: circuit has no logic gates")
	}
	gateLeak := 0.0
	m := make([]float64, len(ids)) // E[L_i]
	for i, id := range ids {
		ex := &exps[id]
		m[i] = d.GateSubLeak(id) * ex.expHalf
		gateLeak += d.GateGateLeak(id)
	}
	mean := 0.0
	for _, v := range m {
		mean += v
	}
	cell, covExp := cellCovExp(d, ids, exps)
	second := 0.0
	for i, idi := range ids {
		// diagonal: E[L_i²] = m0² exp(2(|e|²+s²)) = m_i²·exp(|e|²+s²)
		second += m[i] * m[i] * exps[idi].expFull
		row := covExp[cell[i]]
		for j := i + 1; j < len(ids); j++ {
			second += 2 * m[i] * m[j] * row[cell[j]]
		}
	}
	return finish(mean, second, gateLeak)
}

// cellCovExp returns the grid cell of every gate in ids (index-aligned)
// and the table covExp[a][b] = exp(e_a·e_b) over the occupied cells.
// Each dot product is summed in component order, as a per-gate-pair
// evaluation would sum it, which keeps Exact bitwise stable.
func cellCovExp(d *core.Design, ids []int, exps []exponent) (cell []int, covExp [][]float64) {
	vm := d.Var
	nc := vm.Cfg.GridDim * vm.Cfg.GridDim
	cell = make([]int, len(ids))
	rows := make([][]float64, nc) // exponent loading row per occupied cell
	for i, id := range ids {
		g := d.Circuit.Gate(id)
		cell[i] = vm.CellOf(g.X, g.Y)
		rows[cell[i]] = exps[id].e
	}
	covExp = make([][]float64, nc)
	for a, ea := range rows {
		if ea == nil {
			continue
		}
		covExp[a] = make([]float64, nc)
		for b, eb := range rows {
			if eb == nil {
				continue
			}
			eb = eb[:len(ea)]
			cov := 0.0
			for k, v := range ea {
				cov += v * eb[k]
			}
			covExp[a][b] = math.Exp(cov)
		}
	}
	return cell, covExp
}

func finish(mean, second, gateLeak float64) (*Analysis, error) {
	fit, variance, err := fitMoments(mean, second)
	if err != nil {
		return nil, err
	}
	return &Analysis{
		MeanNW:     gateLeak + mean,
		StdNW:      math.Sqrt(variance),
		Fit:        fit,
		GateLeakNW: gateLeak,
	}, nil
}

// fitMoments matches a lognormal to the variational part of the sum
// from its first two raw moments — the tail Analysis and QuantileIf
// share.
func fitMoments(mean, second float64) (stats.Lognormal, float64, error) {
	variance := second - mean*mean
	if variance < 0 {
		variance = 0
	}
	fit, err := stats.LognormalFromMoments(mean, variance)
	if err != nil {
		return stats.Lognormal{}, 0, fmt.Errorf("leakage: %v", err)
	}
	return fit, variance, nil
}

// Accumulator maintains the factored second-moment state of the
// leakage sum and supports O(k²) per-gate updates. It approximates
// exp(cov_ij) ≈ 1 + cov_ij + cov_ij²/2 in the off-diagonal second
// moment, which factors into per-component sums:
//
//	Σ_{i≠j} m_i m_j exp(e_i·e_j) ≈ (M² − Q)
//	     + (|v|² − D1)  + ½·(‖B‖²_F − D2)
//
// with M = Σm_i, Q = Σm_i², v_k = Σ m_i e_ik, B_kl = Σ m_i e_ik e_il,
// D1 = Σ m_i²|e_i|², D2 = Σ m_i²|e_i|⁴. The exponent covariances are
// small (|e_i|² ≲ 0.15 at the default 6% σ(L)), so the truncation
// error is third-order; the A3 ablation quantifies it against Exact.
type Accumulator struct {
	d    *core.Design
	exps []exponent
	k    int

	// pg is the per-gate cached state, structure-of-arrays with a
	// stride of pgStride floats per gate: E[L_i] under the current
	// assignment, the exp(|e|²+s²) factor for E[L_i²], and the
	// deterministic gate-leak contribution. One update touches one
	// contiguous triple; a clone bulk-copies one flat slice.
	pg       []float64
	M, Q     float64
	v        []float64
	b        []float64 // k×k row-major
	d1, d2   float64
	gateLeak float64
	second2  float64 // Σ m_i²·diagExp_i (the exact diagonal)
}

// pgStride is the number of cached floats per gate in Accumulator.pg:
// mean contribution, diagonal exponent factor, gate-leak offset.
const pgStride = 3

func (a *Accumulator) numGates() int { return len(a.pg) / pgStride }

// NewAccumulator builds the factored state for the design's current
// assignment.
func NewAccumulator(d *core.Design) (*Accumulator, error) {
	exps := exponents(d)
	k := d.Var.NumPC
	a := &Accumulator{
		d:    d,
		exps: exps,
		k:    k,
		pg:   make([]float64, pgStride*d.Circuit.NumNodes()),
		v:    make([]float64, k),
		b:    make([]float64, k*k),
	}
	any := false
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		any = true
		a.addGate(g.ID, +1)
	}
	if !any {
		return nil, fmt.Errorf("leakage: circuit has no logic gates")
	}
	return a, nil
}

// CloneFor returns an independent copy of the factored state bound to
// d, which must be a clone of the original design in the same
// assignment state. The exponent statistics are shared (they depend
// only on placement and technology, not on the assignment); all
// accumulated sums are deep-copied so the clone can Update freely.
func (a *Accumulator) CloneFor(d *core.Design) *Accumulator {
	return &Accumulator{
		d:        d,
		exps:     a.exps,
		k:        a.k,
		pg:       append([]float64(nil), a.pg...),
		M:        a.M,
		Q:        a.Q,
		v:        append([]float64(nil), a.v...),
		b:        append([]float64(nil), a.b...),
		d1:       a.d1,
		d2:       a.d2,
		gateLeak: a.gateLeak,
		second2:  a.second2,
	}
}

// addGate adds (sign=+1) or removes (sign=-1) gate id's contribution.
// On removal the cached per-gate values are used, because the design's
// assignment has typically already changed by the time Update runs.
func (a *Accumulator) addGate(id int, sign float64) {
	ex := &a.exps[id]
	pg := a.pg[pgStride*id : pgStride*id+pgStride]
	if sign > 0 {
		pg[0] = a.d.GateSubLeak(id) * ex.expHalf
		pg[1] = ex.expFull
		pg[2] = a.d.GateGateLeak(id)
	}
	mi := pg[0]
	a.M += sign * mi
	a.Q += sign * mi * mi
	a.d1 += sign * mi * mi * ex.normE2
	a.d2 += sign * mi * mi * ex.normE2 * ex.normE2
	a.second2 += sign * mi * mi * pg[1]
	a.gateLeak += sign * pg[2]
	// Hoisting (sign·m_i)·e_k keeps the historical left-to-right
	// association of sign·m_i·e_k·e_l, so the factored sums stay
	// bitwise identical while the k² inner loop drops from three
	// multiplies per cell to one; slicing e and each B row to a common
	// proven length lets the compiler drop the inner bounds checks.
	e := ex.e[:a.k]
	v := a.v[:a.k]
	for k, ek := range e {
		smk := sign * mi * ek
		v[k] += smk
		row := a.b[k*a.k : (k+1)*a.k : (k+1)*a.k]
		for l, el := range e {
			row[l] += smk * el
		}
	}
}

// Update refreshes gate id's contribution after its Vth or size
// changed in the underlying design. O(k²).
func (a *Accumulator) Update(id int) {
	a.addGate(id, -1)
	a.addGate(id, +1)
}

// Analysis produces the moment-matched view of the current state.
func (a *Accumulator) Analysis() (*Analysis, error) {
	mean := a.M
	v2 := 0.0
	for _, x := range a.v {
		v2 += x * x
	}
	bf := 0.0
	for _, x := range a.b {
		bf += x * x
	}
	return finish(mean, secondMoment(a.M, a.Q, v2, a.d1, bf, a.d2, a.second2), a.gateLeak)
}

// secondMoment folds the factored sums into the second raw moment of
// the subthreshold total (see the Accumulator comment), given
// v2 = |v|² and bf = ‖B‖²_F.
func secondMoment(M, Q, v2, d1, bf, d2, second2 float64) float64 {
	off := (M*M - Q) + (v2 - d1) + 0.5*(bf-d2)
	return second2 + off
}

// QuantileIf returns the leakage quantile the accumulator would report
// if gate id's subthreshold leakage were subNW and its gate-tunneling
// leakage gateNW, where z = stats.NormalQuantile(p) is hoisted out of
// the caller's candidate loop. It writes no state: the sums are those
// Update would leave (addGate −1 with the cached row, then +1 with the
// new values) and Analysis would fold, expression for expression, so
// the result is bitwise Update followed by Quantile(p) on a clone.
// Like Quantile it returns NaN on a moment-matching failure.
func (a *Accumulator) QuantileIf(id int, subNW, gateNW, z float64) float64 {
	ex := &a.exps[id]
	pg := a.pg[pgStride*id : pgStride*id+pgStride]
	m0, m1 := pg[0], subNW*ex.expHalf
	M := a.M - m0 + m1
	Q := a.Q - m0*m0 + m1*m1
	d1 := a.d1 - m0*m0*ex.normE2 + m1*m1*ex.normE2
	d2 := a.d2 - m0*m0*ex.normE2*ex.normE2 + m1*m1*ex.normE2*ex.normE2
	second2 := a.second2 - m0*m0*pg[1] + m1*m1*ex.expFull
	gateLeak := a.gateLeak - pg[2] + gateNW
	// v and each B row change along e only; summing the squares row by
	// row visits them in Analysis's order.
	e := ex.e[:a.k]
	v := a.v[:a.k]
	v2, bf := 0.0, 0.0
	for k, ek := range e {
		s0, s1 := m0*ek, m1*ek
		x := v[k] - s0 + s1
		v2 += x * x
		row := a.b[k*a.k : (k+1)*a.k : (k+1)*a.k]
		for l, el := range e {
			y := row[l] - s0*el + s1*el
			bf += y * y
		}
	}
	fit, _, err := fitMoments(M, secondMoment(M, Q, v2, d1, bf, d2, second2))
	if err != nil {
		return math.NaN()
	}
	return gateLeak + math.Exp(fit.Mu+fit.Sigma*z)
}

// Quantile is a convenience for Analysis().Quantile(p); it returns
// NaN on an internal moment-matching failure (impossible for a live
// design, which always has positive mean leakage).
func (a *Accumulator) Quantile(p float64) float64 {
	an, err := a.Analysis()
	if err != nil {
		return math.NaN()
	}
	return an.Quantile(p)
}

// Mean returns the current mean total leakage [nW].
func (a *Accumulator) Mean() float64 { return a.gateLeak + a.M }

// NominalTotal returns the design's nominal (no-variation) leakage
// [nW], for reporting the nominal-vs-statistical gap.
func NominalTotal(d *core.Design) float64 { return d.TotalLeak() }
