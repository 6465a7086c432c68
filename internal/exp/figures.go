package exp

import (
	"fmt"
	"math"

	"repro/internal/leakage"
	"repro/internal/opt"
	"repro/internal/report"
	"repro/internal/ssta"
	"repro/internal/stats"
	"repro/internal/variation"
)

// figureBench is the single circuit used for the distribution figures.
const figureBench = "s880"

// Figure1 reproduces the leakage-distribution figure: the Monte Carlo
// histogram of total leakage for the unoptimized design against the
// lognormal-matched analytic density.
func (ctx *Context) Figure1() (*report.Series, error) {
	pr, err := ctx.Prepare(figureBench, nil)
	if err != nil {
		return nil, err
	}
	mc, err := ctx.mcOn(pr.Base, pr.TmaxPs)
	if err != nil {
		return nil, err
	}
	an, err := leakage.Exact(pr.Base)
	if err != nil {
		return nil, err
	}
	ls := mc.LeakSummary()
	lo := ls.Min * 0.95
	hi := ls.P99 * 1.3
	hist, err := stats.NewHistogram(lo, hi, 24)
	if err != nil {
		return nil, err
	}
	hist.AddAll(mc.LeaksNW)
	s := report.NewSeries(
		fmt.Sprintf("Figure 1 — total leakage distribution, %s unoptimized (lognormal fit vs MC)", figureBench),
		"leak [nW]", "MC density", "lognormal fit")
	for i := range hist.Counts {
		x := hist.BinCenter(i)
		// analytic density of the (gate-leak-shifted) lognormal
		fit := 0.0
		if x > an.GateLeakNW {
			z := x - an.GateLeakNW
			lf := an.Fit
			fit = stats.NormalPDF((math.Log(z)-lf.Mu)/lf.Sigma) / (z * lf.Sigma)
		}
		if err := s.Add(x, hist.Density(i), fit); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Figure2 reproduces the delay-distribution figure: Monte Carlo
// histograms before and after statistical optimization, with the SSTA
// Gaussian density for each.
func (ctx *Context) Figure2() (*report.Series, error) {
	pr, err := ctx.Prepare(figureBench, nil)
	if err != nil {
		return nil, err
	}
	before := pr.Base.Clone()
	after := pr.Base.Clone()
	if _, err := opt.Statistical(after, pr.Opt); err != nil {
		return nil, err
	}
	mcB, err := ctx.mcOn(before, pr.TmaxPs)
	if err != nil {
		return nil, err
	}
	mcA, err := ctx.mcOn(after, pr.TmaxPs)
	if err != nil {
		return nil, err
	}
	srB, err := ssta.Analyze(before)
	if err != nil {
		return nil, err
	}
	srA, err := ssta.Analyze(after)
	if err != nil {
		return nil, err
	}
	dsB := mcB.DelaySummary()
	dsA := mcA.DelaySummary()
	lo := minf(dsB.Min, dsA.Min) * 0.98
	hi := maxf(dsB.Max, dsA.Max) * 1.02
	histB, err := stats.NewHistogram(lo, hi, 24)
	if err != nil {
		return nil, err
	}
	histA, err := stats.NewHistogram(lo, hi, 24)
	if err != nil {
		return nil, err
	}
	histB.AddAll(mcB.DelaysPs)
	histA.AddAll(mcA.DelaysPs)
	nB, nA := srB.Delay.Normal(), srA.Delay.Normal()
	s := report.NewSeries(
		fmt.Sprintf("Figure 2 — circuit delay distribution, %s (Tmax=%.0f ps marked by the SSTA q99 of the optimized curve)", figureBench, pr.TmaxPs),
		"delay [ps]", "MC before", "SSTA before", "MC after stat-opt", "SSTA after")
	for i := range histB.Counts {
		x := histB.BinCenter(i)
		if err := s.Add(x,
			histB.Density(i), stats.NormalPDF((x-nB.Mu)/nB.Sigma)/nB.Sigma,
			histA.Density(i), stats.NormalPDF((x-nA.Mu)/nA.Sigma)/nA.Sigma); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Figure3 reproduces the leakage-vs-delay-target trade-off curves:
// 99th-percentile leakage of both optimizers as Tmax/Dmin sweeps.
func (ctx *Context) Figure3() (*report.Series, error) {
	s := report.NewSeries(
		fmt.Sprintf("Figure 3 — q99 leakage vs delay target, %s", figureBench),
		"Tmax/Dmin", "det q99 [nW]", "stat q99 [nW]", "improvement [%]")
	for _, f := range []float64{1.15, 1.25, 1.35, 1.5, 1.7} {
		sub := *ctx
		sub.TmaxFactor = f
		pr, err := sub.Prepare(figureBench, nil)
		if err != nil {
			return nil, err
		}
		pair, err := RunPair(pr)
		if err != nil {
			return nil, err
		}
		if !pair.DetRes.Feasible || !pair.StatRes.Feasible {
			continue
		}
		if err := s.Add(f, pair.DetEval.LeakPctNW, pair.StatRes.LeakPctNW,
			100*(1-pair.StatRes.LeakPctNW/pair.DetEval.LeakPctNW)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Figure4 reproduces the improvement-vs-variation figure: the
// statistical optimizer's q99 advantage as σ(Leff) sweeps.
func (ctx *Context) Figure4() (*report.Series, error) {
	s := report.NewSeries(
		fmt.Sprintf("Figure 4 — statistical advantage vs variation magnitude, %s", figureBench),
		"sigma(L)/Lnom [%]", "det q99 [nW]", "stat q99 [nW]", "improvement [%]")
	leffNom := 60.0
	for _, sigPct := range []float64{2, 4, 6, 8, 10} {
		cfg := variation.Default(leffNom)
		cfg.SigmaLNm = sigPct / 100 * leffNom
		vm, err := variation.New(cfg)
		if err != nil {
			return nil, err
		}
		pr, err := ctx.Prepare(figureBench, vm)
		if err != nil {
			return nil, err
		}
		pair, err := RunPair(pr)
		if err != nil {
			return nil, err
		}
		if !pair.DetRes.Feasible || !pair.StatRes.Feasible {
			continue
		}
		if err := s.Add(sigPct, pair.DetEval.LeakPctNW, pair.StatRes.LeakPctNW,
			100*(1-pair.StatRes.LeakPctNW/pair.DetEval.LeakPctNW)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Figure5 reproduces the timing-yield curves Yield(T) of both
// optimized designs around the constraint.
func (ctx *Context) Figure5() (*report.Series, error) {
	pr, err := ctx.Prepare(figureBench, nil)
	if err != nil {
		return nil, err
	}
	pair, err := RunPair(pr)
	if err != nil {
		return nil, err
	}
	srD, err := ssta.Analyze(pair.Det)
	if err != nil {
		return nil, err
	}
	srS, err := ssta.Analyze(pair.Stat)
	if err != nil {
		return nil, err
	}
	mcD, err := ctx.mcOn(pair.Det, pr.TmaxPs)
	if err != nil {
		return nil, err
	}
	mcS, err := ctx.mcOn(pair.Stat, pr.TmaxPs)
	if err != nil {
		return nil, err
	}
	s := report.NewSeries(
		fmt.Sprintf("Figure 5 — timing yield curves, %s (Tmax = %.0f ps)", figureBench, pr.TmaxPs),
		"T/Tmax", "det yield (SSTA)", "det yield (MC)", "stat yield (SSTA)", "stat yield (MC)")
	for _, f := range []float64{0.90, 0.94, 0.97, 1.0, 1.03, 1.06, 1.10} {
		tq := f * pr.TmaxPs
		yD, err := mcD.TimingYield(tq)
		if err != nil {
			return nil, err
		}
		yS, err := mcS.TimingYield(tq)
		if err != nil {
			return nil, err
		}
		if err := s.Add(f, srD.Yield(tq), yD, srS.Yield(tq), yS); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
