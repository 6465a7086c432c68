package leakage_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/tech"
	"repro/internal/variation"
)

func relErr(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

func suite(t testing.TB, name string) *core.Design {
	t.Helper()
	d, err := fixture.Suite(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMeanAboveNominal(t *testing.T) {
	// E[exp(X)] > exp(E[X]): statistical mean leakage strictly exceeds
	// the nominal value — the first-order fact the paper builds on.
	d := suite(t, "s432")
	an, err := leakage.Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	nom := d.TotalLeak()
	if an.MeanNW <= nom {
		t.Errorf("statistical mean %g not above nominal %g", an.MeanNW, nom)
	}
	if an.MeanNW > nom*1.5 {
		t.Errorf("statistical mean %g implausibly far above nominal %g", an.MeanNW, nom)
	}
	// And the 99th percentile is far above the mean.
	if q := an.Quantile(0.99); q < an.MeanNW*1.2 {
		t.Errorf("q99 %g not well above mean %g", q, an.MeanNW)
	}
}

func TestExactAgainstMonteCarlo(t *testing.T) {
	for _, name := range []string{"s432", "s880"} {
		d := suite(t, name)
		an, err := leakage.Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := montecarlo.Run(d, montecarlo.Config{Samples: 4000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		ls := mc.LeakSummary()
		if e := relErr(an.MeanNW, ls.Mean); e > 0.03 {
			t.Errorf("%s: mean: analytic %g vs MC %g (%.1f%%)", name, an.MeanNW, ls.Mean, e*100)
		}
		if e := relErr(an.StdNW, ls.StdDev); e > 0.15 {
			t.Errorf("%s: std: analytic %g vs MC %g (%.1f%%)", name, an.StdNW, ls.StdDev, e*100)
		}
		if e := relErr(an.Quantile(0.99), mc.LeakQuantile(0.99)); e > 0.10 {
			t.Errorf("%s: q99: analytic %g vs MC %g (%.1f%%)", name,
				an.Quantile(0.99), mc.LeakQuantile(0.99), e*100)
		}
		if e := relErr(an.Quantile(0.5), mc.LeakQuantile(0.5)); e > 0.05 {
			t.Errorf("%s: median: analytic %g vs MC %g (%.1f%%)", name,
				an.Quantile(0.5), mc.LeakQuantile(0.5), e*100)
		}
	}
}

func TestAccumulatorMatchesExact(t *testing.T) {
	for _, name := range []string{"s432", "s1355"} {
		d := suite(t, name)
		exact, err := leakage.Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := leakage.NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := acc.Analysis()
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(fast.MeanNW, exact.MeanNW); e > 1e-9 {
			t.Errorf("%s: factored mean off by %g (means are exact in both)", name, e)
		}
		if e := relErr(fast.StdNW, exact.StdNW); e > 0.02 {
			t.Errorf("%s: factored std %g vs exact %g (%.2f%%)", name, fast.StdNW, exact.StdNW, e*100)
		}
		if e := relErr(fast.Quantile(0.99), exact.Quantile(0.99)); e > 0.02 {
			t.Errorf("%s: factored q99 %g vs exact %g (%.2f%%)", name,
				fast.Quantile(0.99), exact.Quantile(0.99), e*100)
		}
	}
}

func TestAccumulatorIncrementalUpdate(t *testing.T) {
	d := suite(t, "s432")
	acc, err := leakage.NewAccumulator(d)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a batch of gates to HVT and resize some, updating
	// incrementally; then rebuild from scratch and compare.
	i := 0
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		i++
		switch i % 3 {
		case 0:
			if err := d.SetVth(g.ID, tech.HighVth); err != nil {
				t.Fatal(err)
			}
			acc.Update(g.ID)
		case 1:
			if err := d.SetSize(g.ID, 4); err != nil {
				t.Fatal(err)
			}
			acc.Update(g.ID)
		}
	}
	fresh, err := leakage.NewAccumulator(d)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := acc.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fresh.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	if relErr(a1.MeanNW, a2.MeanNW) > 1e-9 {
		t.Errorf("incremental mean %g vs fresh %g", a1.MeanNW, a2.MeanNW)
	}
	if relErr(a1.StdNW, a2.StdNW) > 1e-6 {
		t.Errorf("incremental std %g vs fresh %g", a1.StdNW, a2.StdNW)
	}
	if relErr(a1.Quantile(0.99), a2.Quantile(0.99)) > 1e-6 {
		t.Errorf("incremental q99 %g vs fresh %g", a1.Quantile(0.99), a2.Quantile(0.99))
	}
}

func TestHVTReducesStatisticalLeakage(t *testing.T) {
	d := suite(t, "s499")
	before, err := leakage.Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			if err := d.SetVth(g.ID, tech.HighVth); err != nil {
				t.Fatal(err)
			}
		}
	}
	after, err := leakage.Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if after.MeanNW >= before.MeanNW {
		t.Error("all-HVT did not reduce mean leakage")
	}
	if after.Quantile(0.99) >= before.Quantile(0.99) {
		t.Error("all-HVT did not reduce q99 leakage")
	}
	// The subthreshold part scales by the HVT ratio; the gate-leak
	// offset does not. Check the subthreshold ratio via the means.
	subBefore := before.MeanNW - before.GateLeakNW
	subAfter := after.MeanNW - after.GateLeakNW
	wantRatio := d.Lib.SubLeak(logic.Inv, tech.HighVth, 1) / d.Lib.SubLeak(logic.Inv, tech.LowVth, 1)
	if got := subAfter / subBefore; relErr(got, wantRatio) > 1e-9 {
		t.Errorf("subthreshold mean ratio %g, want %g", got, wantRatio)
	}
}

func TestQuantileMonotone(t *testing.T) {
	d := suite(t, "s432")
	an, err := leakage.Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		q := an.Quantile(p)
		if q <= prev {
			t.Fatalf("quantiles not increasing at p=%g: %g <= %g", p, q, prev)
		}
		prev = q
	}
}

func TestCorrelationRaisesVariance(t *testing.T) {
	// With spatial+D2D correlation the sum's variance must exceed the
	// independent-gates case (same marginals, zero covariance).
	d := suite(t, "s880")
	corr, err := leakage.Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	dInd := suite(t, "s880")
	// Rebuild with an independent-only variation model.
	cfgInd := dInd.Var.Cfg
	cfgInd.FracD2D = 0
	cfgInd.FracCorr = 0
	cfgInd.FracInd = 1
	vmInd, err := variation.New(cfgInd)
	if err != nil {
		t.Fatal(err)
	}
	dInd.Var = vmInd
	ind, err := leakage.Exact(dInd)
	if err != nil {
		t.Fatal(err)
	}
	if corr.StdNW <= ind.StdNW {
		t.Errorf("correlated std %g not above independent std %g", corr.StdNW, ind.StdNW)
	}
	// Means agree to within the PCA truncation loss (the correlated
	// model drops ~2% of the correlated exponent variance, which moves
	// E[exp(X)] by well under 1%).
	if relErr(corr.MeanNW, ind.MeanNW) > 0.01 {
		t.Errorf("means differ: %g vs %g", corr.MeanNW, ind.MeanNW)
	}
}

func TestGatelessCircuitRejected(t *testing.T) {
	// A circuit whose only node is a PI tapped as PO is structurally
	// valid but has no leakage sum to analyze.
	env, err := fixture.DefaultEnv()
	if err != nil {
		t.Fatal(err)
	}
	c := logic.New("empty")
	a, _ := c.AddInput("a")
	_ = c.MarkOutput(a)
	d, err := core.NewDesign(c, env.Lib, env.Var)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leakage.Exact(d); err == nil {
		t.Error("Exact accepted a gateless circuit")
	}
	if _, err := leakage.NewAccumulator(d); err == nil {
		t.Error("NewAccumulator accepted a gateless circuit")
	}
}

// TestAllocationsPerCellNotPerGate: the accumulator and the exact
// analysis build one exponent record per occupied grid cell, not one
// per gate, so they allocate as many objects on s3540 as on s432.
func TestAllocationsPerCellNotPerGate(t *testing.T) {
	allocs := func(name string) (acc, exact float64) {
		d := suite(t, name)
		acc = testing.AllocsPerRun(3, func() {
			if _, err := leakage.NewAccumulator(d); err != nil {
				t.Fatal(err)
			}
		})
		exact = testing.AllocsPerRun(3, func() {
			if _, err := leakage.Exact(d); err != nil {
				t.Fatal(err)
			}
		})
		return acc, exact
	}
	acc432, exact432 := allocs("s432")
	acc3540, exact3540 := allocs("s3540")
	if acc432 != acc3540 {
		t.Errorf("NewAccumulator allocates %g objects on s432 and %g on s3540", acc432, acc3540)
	}
	if exact432 != exact3540 {
		t.Errorf("Exact allocates %g objects on s432 and %g on s3540", exact432, exact3540)
	}
}
