package ssta_test

import (
	"math"
	"testing"

	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/stats"
)

func TestCanonicalAlgebra(t *testing.T) {
	a := ssta.Canonical{Mean: 10, Sens: []float64{1, 2}, Rand: 2}
	b := ssta.Canonical{Mean: 5, Sens: []float64{-1, 1}, Rand: 1}
	if got := a.Variance(); got != 1+4+4 {
		t.Errorf("Variance = %g", got)
	}
	sum := ssta.Add(a, b)
	if sum.Mean != 15 {
		t.Errorf("Add mean = %g", sum.Mean)
	}
	if sum.Sens[0] != 0 || sum.Sens[1] != 3 {
		t.Errorf("Add sens = %v", sum.Sens)
	}
	if math.Abs(sum.Rand-math.Sqrt(5)) > 1e-12 {
		t.Errorf("Add rand = %g", sum.Rand)
	}
	// Covariance uses only the shared globals.
	if got := ssta.Covariance(a, b); got != -1+2 {
		t.Errorf("Covariance = %g", got)
	}
}

func TestCanonicalCorrelationBounds(t *testing.T) {
	a := ssta.Canonical{Mean: 0, Sens: []float64{3}, Rand: 0}
	b := ssta.Canonical{Mean: 0, Sens: []float64{5}, Rand: 0}
	if got := ssta.Correlation(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfectly correlated forms give rho = %g", got)
	}
	det := ssta.NewCanonical(4, 1)
	if got := ssta.Correlation(det, a); got != 0 {
		t.Errorf("deterministic form correlation = %g", got)
	}
}

func TestMaxMatchesClark(t *testing.T) {
	a := ssta.Canonical{Mean: 10, Sens: []float64{2, 0}, Rand: 1}
	b := ssta.Canonical{Mean: 9, Sens: []float64{1, 1}, Rand: 0.5}
	m := ssta.Max(a, b)
	ref := stats.ClarkMax(a.Mean, a.Sigma(), b.Mean, b.Sigma(), ssta.Correlation(a, b))
	if math.Abs(m.Mean-ref.Mean) > 1e-12 {
		t.Errorf("Max mean %g vs Clark %g", m.Mean, ref.Mean)
	}
	if math.Abs(m.Variance()-ref.Variance) > 1e-9 {
		t.Errorf("Max variance %g vs Clark %g", m.Variance(), ref.Variance)
	}
	// Sensitivities are a tightness blend.
	for k := range m.Sens {
		want := ref.Tightness*a.Sens[k] + (1-ref.Tightness)*b.Sens[k]
		if math.Abs(m.Sens[k]-want) > 1e-12 {
			t.Errorf("Max sens[%d] = %g, want %g", k, m.Sens[k], want)
		}
	}
}

func TestMaxDominance(t *testing.T) {
	a := ssta.Canonical{Mean: 100, Sens: []float64{1}, Rand: 0.5}
	b := ssta.Canonical{Mean: 0, Sens: []float64{0.1}, Rand: 0.1}
	m := ssta.Max(a, b)
	if math.Abs(m.Mean-a.Mean) > 1e-6 || math.Abs(m.Sigma()-a.Sigma()) > 1e-6 {
		t.Errorf("dominant Max should return the dominant form: %+v", m)
	}
	// Max of perfectly correlated identical forms (no private residual)
	// is the form itself. With private residuals the model treats the
	// two operands' residuals as independent — the classic Clark
	// approximation — so we only require a small positive bias there.
	c := ssta.Canonical{Mean: 50, Sens: []float64{2, 1}}
	m2 := ssta.Max(c, c)
	if math.Abs(m2.Mean-c.Mean) > 1e-9 || math.Abs(m2.Sigma()-c.Sigma()) > 1e-9 {
		t.Errorf("Max(c,c) = %+v, want c", m2)
	}
	m3 := ssta.Max(a, a)
	if m3.Mean < a.Mean || m3.Mean > a.Mean+a.Rand {
		t.Errorf("Max(a,a) mean %g outside [%g,%g]", m3.Mean, a.Mean, a.Mean+a.Rand)
	}
}

// maxFold left-folds Max over a non-empty set of forms.
func maxFold(forms []ssta.Canonical) ssta.Canonical {
	acc := forms[0].Clone()
	for _, f := range forms[1:] {
		acc = ssta.Max(acc, f)
	}
	return acc
}

// TestMaxAll checks the fold of Max over a set of forms: it is at
// least the largest mean, and Analyze's circuit delay is exactly that
// fold over the timing endpoints — the primary outputs, then the
// flip-flop data pins shifted by the setup time.
func TestMaxAll(t *testing.T) {
	forms := []ssta.Canonical{
		{Mean: 1, Sens: []float64{0}, Rand: 0.1},
		{Mean: 5, Sens: []float64{0}, Rand: 0.1},
		{Mean: 3, Sens: []float64{0}, Rand: 0.1},
	}
	if m := maxFold(forms); m.Mean < 5 {
		t.Errorf("Max fold mean %g < 5", m.Mean)
	}
	for _, name := range []string{"s432", "q344"} {
		d, err := fixture.Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ssta.Analyze(d)
		if err != nil {
			t.Fatal(err)
		}
		var endpoints []ssta.Canonical
		for _, o := range d.Circuit.Outputs() {
			endpoints = append(endpoints, r.Arrival(o))
		}
		for _, f := range d.Circuit.Dffs() {
			capture := r.Arrival(d.Circuit.Gate(f).Fanin[0]).Clone()
			capture.Mean += d.Lib.P.DffSetupPs
			endpoints = append(endpoints, capture)
		}
		if len(endpoints) == 0 {
			t.Fatalf("%s: no timing endpoints", name)
		}
		want := maxFold(endpoints)
		got := r.Delay
		if got.Mean != want.Mean || got.Rand != want.Rand || len(got.Sens) != len(want.Sens) {
			t.Fatalf("%s: Delay %+v, want endpoint fold %+v", name, got, want)
		}
		for k := range want.Sens {
			if got.Sens[k] != want.Sens[k] {
				t.Errorf("%s: Delay sens[%d] = %g, want %g", name, k, got.Sens[k], want.Sens[k])
			}
		}
	}
}

func TestAnalyzeMeanTracksNominalSTA(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := sta.Analyze(d, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// Clark's max only adds positive bias, so the SSTA mean is at or
	// slightly above the nominal deterministic delay.
	if sr.Delay.Mean < dr.MaxDelay {
		t.Errorf("SSTA mean %g below nominal max %g", sr.Delay.Mean, dr.MaxDelay)
	}
	if sr.Delay.Mean > dr.MaxDelay*1.15 {
		t.Errorf("SSTA mean %g too far above nominal %g", sr.Delay.Mean, dr.MaxDelay)
	}
	if sr.Delay.Sigma() <= 0 {
		t.Error("circuit delay sigma must be positive under variation")
	}
}

// TestAnalyzeAgainstMonteCarlo is the package's T4-style validation:
// the canonical circuit-delay distribution must match the exact-model
// Monte Carlo within Clark-approximation tolerances.
func TestAnalyzeAgainstMonteCarlo(t *testing.T) {
	for _, name := range []string{"s432", "s880"} {
		d, err := fixture.Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := ssta.Analyze(d)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := montecarlo.Run(d, montecarlo.Config{Samples: 3000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ds := mc.DelaySummary()
		if rel := math.Abs(sr.Delay.Mean-ds.Mean) / ds.Mean; rel > 0.04 {
			t.Errorf("%s: SSTA mean %g vs MC %g (%.1f%%)", name, sr.Delay.Mean, ds.Mean, rel*100)
		}
		if rel := math.Abs(sr.Delay.Sigma()-ds.StdDev) / ds.StdDev; rel > 0.25 {
			t.Errorf("%s: SSTA sigma %g vs MC %g (%.1f%%)", name, sr.Delay.Sigma(), ds.StdDev, rel*100)
		}
		// Yield agreement at a few constraints around the mean.
		for _, k := range []float64{-1, 0, 1, 2} {
			tmax := ds.Mean + k*ds.StdDev
			ay := sr.Yield(tmax)
			my := mustYield(t, mc, tmax)
			if math.Abs(ay-my) > 0.06 {
				t.Errorf("%s: yield at mean%+gσ: SSTA %.3f vs MC %.3f", name, k, ay, my)
			}
		}
	}
}

func TestYieldQuantileConsistency(t *testing.T) {
	d, err := fixture.Suite("s499")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q := r.Quantile(p)
		if y := r.Yield(q); math.Abs(y-p) > 1e-9 {
			t.Errorf("Yield(Quantile(%g)) = %g", p, y)
		}
	}
}

func TestStatisticalSlackSemantics(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	eta := 0.99
	tmax := r.Quantile(eta) * 1.05
	slack, err := r.StatisticalSlack(d, tmax, eta)
	if err != nil {
		t.Fatal(err)
	}
	if len(slack) != d.Circuit.NumNodes() {
		t.Fatalf("slack length %d", len(slack))
	}
	// With tmax above the eta-quantile, most of the circuit has
	// positive statistical slack.
	neg := 0
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input && slack[g.ID] < 0 {
			neg++
		}
	}
	if neg > d.Circuit.NumGates()/10 {
		t.Errorf("%d/%d gates negative statistical slack under a loose constraint", neg, d.Circuit.NumGates())
	}
	// Tightening the constraint reduces every slack.
	slack2, err := r.StatisticalSlack(d, tmax-50, eta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range slack {
		if slack2[i] >= slack[i] {
			t.Fatalf("slack at node %d did not shrink: %g -> %g", i, slack[i], slack2[i])
		}
	}
}

func TestGateDelayCanonicalStructure(t *testing.T) {
	d, err := fixture.C17()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range d.Circuit.Gates() {
		c := ssta.GateDelayCanonical(d, g.ID)
		if g.Type == logic.Input {
			if c.Mean != 0 || c.Rand != 0 {
				t.Errorf("PI %s canonical not zero", g.Name)
			}
			continue
		}
		if math.Abs(c.Mean-d.GateDelay(g.ID)) > 1e-12 {
			t.Errorf("%s: canonical mean %g != nominal %g", g.Name, c.Mean, d.GateDelay(g.ID))
		}
		if c.Rand <= 0 {
			t.Errorf("%s: no independent variation", g.Name)
		}
		if len(c.Sens) != d.Var.NumPC {
			t.Errorf("%s: sens dim %d != NumPC %d", g.Name, len(c.Sens), d.Var.NumPC)
		}
		// D2D sensitivity (index 0) must be positive: longer channels
		// are slower.
		if c.Sens[0] <= 0 {
			t.Errorf("%s: D2D delay sensitivity %g not positive", g.Name, c.Sens[0])
		}
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
