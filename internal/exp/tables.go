package exp

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/leakage"
	"repro/internal/opt"
	"repro/internal/report"
	"repro/internal/ssta"
)

// Table1 reports the benchmark suite characteristics: size, depth,
// minimum nominal delay, and the unoptimized (min-size all-LVT)
// nominal leakage. It always covers the full suite.
func (ctx *Context) Table1() (*report.Table, error) {
	t := report.NewTable(
		"Table 1 — benchmark characteristics (synthetic ISCAS85-class suite)",
		"circuit", "PIs", "POs", "gates", "depth", "Dmin [ps]", "leak(nom) [nW]")
	for _, name := range bench.SuiteNames() {
		pr, err := ctx.Prepare(name, nil)
		if err != nil {
			return nil, err
		}
		st, err := pr.Base.Circuit.ComputeStats()
		if err != nil {
			return nil, err
		}
		t.AddRow(name, st.Inputs, st.Outputs, st.Gates, st.Depth,
			pr.DminPs, pr.Base.TotalLeak())
	}
	t.AddNote("Dmin = greedy-sizing minimum nominal delay from the min-size all-LVT start")
	return t, nil
}

// Table2 reports the deterministic baseline: nominal leakage of the
// corner-sized all-LVT design vs after dual-Vth+sizing recovery, at
// Tmax = factor·Dmin.
func (ctx *Context) Table2() (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Table 2 — deterministic dual-Vth+sizing at Tmax = %.2f·Dmin (corner-based)", ctx.TmaxFactor),
		"circuit", "leak sized-LVT [nW]", "leak optimized [nW]", "reduction", "HVT frac", "swaps", "downsizes", "time")
	for _, name := range ctx.benchmarks() {
		pr, err := ctx.Prepare(name, nil)
		if err != nil {
			return nil, err
		}
		// Reference: phase A only (corner-sized, all LVT).
		sized := pr.Base.Clone()
		oRef := pr.Opt
		oRef.EnableVth = false
		oRef.MaxMoves = 0
		refRes, err := opt.Deterministic(sized, oRef)
		if err != nil {
			return nil, err
		}
		// Recovery from the same start with the full move set.
		full := pr.Base.Clone()
		t0 := time.Now()
		res, err := opt.Deterministic(full, pr.Opt)
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		if !refRes.Feasible || !res.Feasible {
			ctx.recordInfeasible("table2", name+" (deterministic)")
			t.AddRow(name, "infeasible", "-", "-", "-", "-", "-", "-")
			continue
		}
		hvt := float64(full.CountHVT()) / float64(full.Circuit.NumGates())
		t.AddRow(name, sized.TotalLeak(), full.TotalLeak(),
			improvement(sized.TotalLeak(), full.TotalLeak()),
			pct(hvt), res.VthSwaps, res.SizeDowns, el.Round(time.Millisecond).String())
	}
	t.AddNote("both columns meet the same %.1fσ-corner delay constraint", opt.DefaultOptions(1).CornerSigma)
	return t, nil
}

// Table3 is the headline comparison: deterministic (corner) vs
// statistical (yield-constrained) optimization, scored on the
// statistical scoreboard — mean and 99th-percentile leakage at equal
// Tmax — with Monte Carlo confirming the timing yields.
func (ctx *Context) Table3() (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Table 3 — deterministic vs statistical optimization (Tmax = %.2f·Dmin, η = %.0f%%)",
			ctx.TmaxFactor, 100*opt.DefaultOptions(1).YieldTarget),
		"circuit", "det q99 [nW]", "det mean [nW]", "det yield(MC)",
		"stat q99 [nW]", "stat mean [nW]", "stat yield(MC)", "q99 improve", "mean improve")
	for _, name := range ctx.benchmarks() {
		pr, err := ctx.Prepare(name, nil)
		if err != nil {
			return nil, err
		}
		pair, err := RunPair(pr)
		if err != nil {
			return nil, err
		}
		if !pair.DetRes.Feasible || !pair.StatRes.Feasible {
			ctx.recordInfeasible("table3", name)
			t.AddRow(name, "infeasible", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		mcDet, err := ctx.mcOn(pair.Det, pr.TmaxPs)
		if err != nil {
			return nil, err
		}
		mcStat, err := ctx.mcOn(pair.Stat, pr.TmaxPs)
		if err != nil {
			return nil, err
		}
		yDet, err := mcDet.TimingYield(pr.TmaxPs)
		if err != nil {
			return nil, err
		}
		yStat, err := mcStat.TimingYield(pr.TmaxPs)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			pair.DetEval.LeakPctNW, pair.DetEval.LeakMeanNW,
			fmt.Sprintf("%.4f", yDet),
			pair.StatRes.LeakPctNW, pair.StatRes.LeakMeanNW,
			fmt.Sprintf("%.4f", yStat),
			improvement(pair.DetEval.LeakPctNW, pair.StatRes.LeakPctNW),
			improvement(pair.DetEval.LeakMeanNW, pair.StatRes.LeakMeanNW))
	}
	t.AddNote("q99 = 99th percentile of total leakage (lognormal-matched analytic model)")
	t.AddNote("expected shape: statistical wins 10-35%% at equal Tmax; det overshoots the yield target")
	return t, nil
}

// Table4 validates the analytic engines against Monte Carlo: SSTA
// delay moments, lognormal leakage moments and 99th percentile, and
// the analytic-vs-MC runtime ratio.
func (ctx *Context) Table4() (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Table 4 — analytic models vs Monte Carlo (%d samples)", ctx.MCSamples),
		"circuit", "delay μ err", "delay σ err", "leak μ err", "leak σ err", "leak q99 err", "analytic [ms]", "MC [ms]", "speedup")
	for _, name := range ctx.benchmarks() {
		pr, err := ctx.Prepare(name, nil)
		if err != nil {
			return nil, err
		}
		d := pr.Base
		t0 := time.Now()
		sr, err := ssta.Analyze(d)
		if err != nil {
			return nil, err
		}
		an, err := leakage.Exact(d)
		if err != nil {
			return nil, err
		}
		analytic := time.Since(t0)
		t1 := time.Now()
		mc, err := ctx.mcOn(d, pr.TmaxPs)
		if err != nil {
			return nil, err
		}
		mcTime := time.Since(t1)
		ds := mc.DelaySummary()
		ls := mc.LeakSummary()
		relerr := func(a, b float64) string { return pct((a - b) / b) }
		t.AddRow(name,
			relerr(sr.Delay.Mean, ds.Mean),
			relerr(sr.Delay.Sigma(), ds.StdDev),
			relerr(an.MeanNW, ls.Mean),
			relerr(an.StdNW, ls.StdDev),
			relerr(an.Quantile(0.99), mc.LeakQuantile(0.99)),
			float64(analytic.Microseconds())/1000,
			float64(mcTime.Microseconds())/1000,
			fmt.Sprintf("%.0fx", float64(mcTime)/float64(analytic)))
	}
	t.AddNote("errors are analytic vs MC, signed; σ errors reflect Clark/Wilkinson approximations")
	return t, nil
}
