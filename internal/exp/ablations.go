package exp

import (
	"fmt"
	"time"

	"repro/internal/leakage"
	"repro/internal/montecarlo"
	"repro/internal/opt"
	"repro/internal/report"
	"repro/internal/ssta"
	"repro/internal/stats"
	"repro/internal/variation"
)

// ablationBench is the circuit used by the ablation studies.
const ablationBench = "s880"

// AblationMoves (A1) isolates the contribution of the two move
// families to the statistical result: Vth-only, sizing-only, and the
// combined move set.
func (ctx *Context) AblationMoves() (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Ablation A1 — move-set contribution, %s (statistical optimizer)", ablationBench),
		"move set", "feasible", "q99 [nW]", "mean [nW]", "yield", "swaps", "size moves")
	pr, err := ctx.Prepare(ablationBench, nil)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name        string
		vth, sizing bool
		relaxForVth bool // Vth-only cannot size to meet Tmax; relax to the min-size q99
	}{
		{"combined (paper)", true, true, false},
		{"sizing only", false, true, false},
		{"Vth only", true, false, true},
	}
	for _, cse := range cases {
		o := pr.Opt
		o.EnableVth = cse.vth
		o.EnableSizing = cse.sizing
		d := pr.Base.Clone()
		if cse.relaxForVth {
			// Without sizing the min-size start must already meet the
			// yield constraint: relax Tmax to its q-eta delay ×1.02.
			ev, err := opt.EvaluateStatistical(d, o)
			if err != nil {
				return nil, err
			}
			o.TmaxPs = (ev.DelayMeanPs + 2.4*ev.DelaySigmaPs) * 1.02
		}
		res, err := opt.Statistical(d, o)
		if err != nil {
			return nil, err
		}
		t.AddRow(cse.name, fmt.Sprintf("%v", res.Feasible),
			res.LeakPctNW, res.LeakMeanNW, fmt.Sprintf("%.4f", res.YieldAtTmax),
			res.VthSwaps, res.SizeUps+res.SizeDowns)
	}
	t.AddNote("Vth-only runs against a relaxed Tmax (min-size design must be feasible without sizing)")
	return t, nil
}

// AblationCorrelation (A2) toggles the spatial-correlation structure:
// the same total variance modeled as fully independent, default
// (D2D + correlated + independent), and fully die-to-die.
func (ctx *Context) AblationCorrelation() (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Ablation A2 — variation decomposition, %s", ablationBench),
		"decomposition", "delay σ [ps]", "leak σ [nW]", "leak q99 [nW]", "stat-opt q99 [nW]", "improvement vs det")
	leffNom := 60.0
	cases := []struct {
		name             string
		d2d, corr, indep float64
	}{
		{"independent only", 0, 0, 1},
		{"default mix (paper)", 0.4, 0.4, 0.2},
		{"die-to-die only", 1, 0, 0},
	}
	for _, cse := range cases {
		cfg := variation.Default(leffNom)
		cfg.FracD2D, cfg.FracCorr, cfg.FracInd = cse.d2d, cse.corr, cse.indep
		vm, err := variation.New(cfg)
		if err != nil {
			return nil, err
		}
		pr, err := ctx.Prepare(ablationBench, vm)
		if err != nil {
			return nil, err
		}
		srDelaySigma, leakSigma, leakQ99, err := baseStats(pr)
		if err != nil {
			return nil, err
		}
		pair, err := RunPair(pr)
		if err != nil {
			return nil, err
		}
		imp := "-"
		statQ := "-"
		if pair.DetRes.Feasible && pair.StatRes.Feasible {
			statQ = report.FormatFloat(pair.StatRes.LeakPctNW)
			imp = improvement(pair.DetEval.LeakPctNW, pair.StatRes.LeakPctNW)
		}
		t.AddRow(cse.name, srDelaySigma, leakSigma, leakQ99, statQ, imp)
	}
	t.AddNote("same total σ(Leff); only its decomposition changes")
	return t, nil
}

// AblationLognormalSum (A3) compares the exact O(n²) Wilkinson sum
// with the factored O(nk²) approximation on accuracy and runtime.
func (ctx *Context) AblationLognormalSum() (*report.Table, error) {
	t := report.NewTable(
		"Ablation A3 — exact vs factored correlated-lognormal sum",
		"circuit", "gates", "q99 rel err", "σ rel err", "exact [ms]", "factored [ms]", "speedup")
	for _, name := range ctx.benchmarks() {
		pr, err := ctx.Prepare(name, nil)
		if err != nil {
			return nil, err
		}
		d := pr.Base
		t0 := time.Now()
		exact, err := leakage.Exact(d)
		if err != nil {
			return nil, err
		}
		exactTime := time.Since(t0)
		t1 := time.Now()
		acc, err := leakage.NewAccumulator(d)
		if err != nil {
			return nil, err
		}
		fast, err := acc.Analysis()
		if err != nil {
			return nil, err
		}
		fastTime := time.Since(t1)
		t.AddRow(name, d.Circuit.NumGates(),
			pct((fast.Quantile(0.99)-exact.Quantile(0.99))/exact.Quantile(0.99)),
			pct((fast.StdNW-exact.StdNW)/exact.StdNW),
			float64(exactTime.Microseconds())/1000,
			float64(fastTime.Microseconds())/1000,
			fmt.Sprintf("%.1fx", float64(exactTime)/float64(fastTime)))
	}
	t.AddNote("the optimizer's incremental updates use the factored form; analysis/reporting uses exact")
	return t, nil
}

// AblationAnnealing (A4) pits the paper-style greedy sensitivity
// heuristic against simulated annealing on the same statistical
// objective and constraint. The expected shape: the greedy lands
// within a few percent of (or beats) annealing at a small fraction of
// the runtime, validating the sensitivity formulation; annealing's
// value is as an assumption-free check, not a practical flow.
func (ctx *Context) AblationAnnealing() (*report.Table, error) {
	t := report.NewTable(
		"Ablation A4 — greedy sensitivity heuristic vs simulated annealing (s432)",
		"optimizer", "feasible", "q99 [nW]", "yield", "moves", "time")
	pr, err := ctx.Prepare("s432", nil)
	if err != nil {
		return nil, err
	}
	greedy := pr.Base.Clone()
	gres, err := opt.Statistical(greedy, pr.Opt)
	if err != nil {
		return nil, err
	}
	t.AddRow("greedy (paper)", fmt.Sprintf("%v", gres.Feasible),
		gres.LeakPctNW, fmt.Sprintf("%.4f", gres.YieldAtTmax),
		gres.Moves, gres.Runtime.Round(time.Millisecond).String())

	annealed := pr.Base.Clone()
	ares, err := opt.Anneal(annealed, pr.Opt, opt.DefaultAnnealConfig())
	if err != nil {
		return nil, err
	}
	t.AddRow("simulated annealing", fmt.Sprintf("%v", ares.Feasible),
		ares.LeakPctNW, fmt.Sprintf("%.4f", ares.YieldAtTmax),
		ares.Moves, ares.Runtime.Round(time.Millisecond).String())
	t.AddNote("same objective (q99 leakage), same yield constraint, same move space")
	return t, nil
}

// AblationSampling (A5) compares plain Monte Carlo with Latin
// Hypercube sampling of the variation globals: the spread of the
// mean-leakage and mean-delay estimators across independent repeats
// at a small sample budget.
func (ctx *Context) AblationSampling() (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Ablation A5 — plain MC vs Latin Hypercube sampling, %s", ablationBench),
		"estimator", "plain spread", "LHS spread", "reduction")
	pr, err := ctx.Prepare(ablationBench, nil)
	if err != nil {
		return nil, err
	}
	const repeats = 12
	n := ctx.MCSamples / 10
	if n < 50 {
		n = 50
	}
	var pLeak, lLeak, pDelay, lDelay []float64
	for r := 0; r < repeats; r++ {
		seed := ctx.Seed + int64(31*r)
		p, err := montecarlo.Run(pr.Base, montecarlo.Config{Samples: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		l, err := montecarlo.Run(pr.Base, montecarlo.Config{
			Samples: n, Seed: seed, Sampling: montecarlo.LatinHypercube})
		if err != nil {
			return nil, err
		}
		pLeak = append(pLeak, p.LeakSummary().Mean)
		lLeak = append(lLeak, l.LeakSummary().Mean)
		pDelay = append(pDelay, p.DelaySummary().Mean)
		lDelay = append(lDelay, l.DelaySummary().Mean)
	}
	row := func(name string, plain, lhs []float64) {
		sp, sl := stats.StdDev(plain), stats.StdDev(lhs)
		t.AddRow(name, sp, sl, improvement(sp, sl))
	}
	row("mean leakage [nW]", pLeak, lLeak)
	row("mean delay [ps]", pDelay, lDelay)
	t.AddNote("spread = std dev of the estimator over %d repeats at %d samples each", repeats, n)
	return t, nil
}

// baseStats returns the unoptimized design's SSTA delay sigma and
// analytic leakage sigma/q99.
func baseStats(pr *Prepared) (delaySigma, leakSigma, leakQ99 float64, err error) {
	sr, err := ssta.Analyze(pr.Base)
	if err != nil {
		return 0, 0, 0, err
	}
	an, err := leakage.Exact(pr.Base)
	if err != nil {
		return 0, 0, 0, err
	}
	return sr.Delay.Sigma(), an.StdNW, an.Quantile(0.99), nil
}
