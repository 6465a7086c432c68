// Package repro's root benchmark harness: one benchmark per
// reconstructed table, figure and ablation (see DESIGN.md §5), so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. Each benchmark executes the same
// driver cmd/experiments runs, against a reduced configuration
// (s432/s880-scale circuits, 300 MC samples) so a full sweep stays in
// the minutes range; cmd/experiments runs the paper-scale version.
package repro

import (
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/fixture"
	"repro/internal/leakage"
	"repro/internal/montecarlo"
	"repro/internal/opt"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/yield"
)

func benchCtx() *exp.Context {
	ctx := exp.NewContext(io.Discard)
	ctx.Benchmarks = []string{"s432"}
	ctx.MCSamples = 300
	return ctx
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := benchCtx().Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Benchmarks regenerates Table 1 (suite
// characteristics; always the full 10-circuit suite).
func BenchmarkTable1Benchmarks(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Deterministic regenerates Table 2 (deterministic
// dual-Vth+sizing leakage recovery).
func BenchmarkTable2Deterministic(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3Statistical regenerates Table 3 (the headline
// deterministic-vs-statistical comparison).
func BenchmarkTable3Statistical(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4Validation regenerates Table 4 (analytic models vs
// Monte Carlo).
func BenchmarkTable4Validation(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFigure1LeakageDist regenerates Figure 1 (leakage
// distribution, lognormal fit vs MC histogram).
func BenchmarkFigure1LeakageDist(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFigure2DelayDist regenerates Figure 2 (delay distribution
// before/after statistical optimization).
func BenchmarkFigure2DelayDist(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFigure3Tradeoff regenerates Figure 3 (q99 leakage vs delay
// target for both optimizers).
func BenchmarkFigure3Tradeoff(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFigure4SigmaSweep regenerates Figure 4 (statistical
// advantage vs variation magnitude).
func BenchmarkFigure4SigmaSweep(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5YieldCurves regenerates Figure 5 (timing-yield
// curves of both optimized designs).
func BenchmarkFigure5YieldCurves(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6Scaling regenerates Figure 6 (statistical advantage
// across technology nodes).
func BenchmarkFigure6Scaling(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkAblationMoves regenerates ablation A1 (move-set
// contribution).
func BenchmarkAblationMoves(b *testing.B) { runExperiment(b, "a1") }

// BenchmarkAblationCorrelation regenerates ablation A2 (variation
// decomposition).
func BenchmarkAblationCorrelation(b *testing.B) { runExperiment(b, "a2") }

// BenchmarkAblationLognormalSum regenerates ablation A3 (exact vs
// factored lognormal sum).
func BenchmarkAblationLognormalSum(b *testing.B) { runExperiment(b, "a3") }

// BenchmarkAblationAnnealing regenerates ablation A4 (greedy vs
// simulated annealing).
func BenchmarkAblationAnnealing(b *testing.B) { runExperiment(b, "a4") }

// BenchmarkAblationSampling regenerates ablation A5 (plain MC vs
// Latin Hypercube sampling).
func BenchmarkAblationSampling(b *testing.B) { runExperiment(b, "a5") }

// BenchmarkExtensionABB regenerates extension E1 (adaptive body bias
// on top of both optimizers).
func BenchmarkExtensionABB(b *testing.B) { runExperiment(b, "e1") }

// BenchmarkExtensionStandbyVector regenerates extension E2
// (state-dependent standby-vector selection).
func BenchmarkExtensionStandbyVector(b *testing.B) { runExperiment(b, "e2") }

// BenchmarkExtensionDualFront regenerates extension E3 (the
// delay-under-leakage-budget Pareto front).
func BenchmarkExtensionDualFront(b *testing.B) { runExperiment(b, "e3") }

// BenchmarkExtensionTemperature regenerates extension E4 (the
// operating-temperature sweep).
func BenchmarkExtensionTemperature(b *testing.B) { runExperiment(b, "e4") }

// BenchmarkSequentialTable regenerates Table S1 (the headline
// comparison on sequential ISCAS89-class circuits).
func BenchmarkSequentialTable(b *testing.B) { runExperiment(b, "s1") }

// ---- micro-benchmarks of the analysis kernels ----

// BenchmarkSTA measures one full deterministic timing analysis.
func BenchmarkSTA(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sta.Analyze(d, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSTA measures one full statistical timing analysis
// (canonical forms + Clark maxes).
func BenchmarkSSTA(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssta.Analyze(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakageExact measures the reference lognormal sum: an O(n²)
// pair loop over a per-call table of exp(e_i·e_j) per grid-cell pair.
func BenchmarkLeakageExact(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leakage.Exact(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakageAccumulatorUpdate measures one incremental
// optimizer-style update + percentile query.
func BenchmarkLeakageAccumulatorUpdate(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
	acc, err := leakage.NewAccumulator(d)
	if err != nil {
		b.Fatal(err)
	}
	id := d.Circuit.Outputs()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Update(id)
		if q := acc.Quantile(0.99); q <= 0 {
			b.Fatal("bad quantile")
		}
	}
}

// BenchmarkSSTAIncrementalUpdate measures one incremental re-timing
// after a single gate change (vs BenchmarkSSTA for the full pass).
func BenchmarkSSTAIncrementalUpdate(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
	inc, err := ssta.NewIncremental(d)
	if err != nil {
		b.Fatal(err)
	}
	id := d.Circuit.Outputs()[0]
	sizes := d.Lib.Sizes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.SetSize(id, sizes[1+i%2]); err != nil {
			b.Fatal(err)
		}
		inc.Update(id)
	}
}

// BenchmarkEngineIncrementalVsFull compares one optimizer-style
// evaluation step through the engine — apply a move, read the delay
// and leakage percentiles off the incrementally maintained caches,
// revert — against the same step with from-scratch analyses
// (ssta.Analyze + a fresh leakage.Accumulator) per move. The ratio of
// the two is the engine's per-move speedup (recorded in
// EXPERIMENTS.md).
func BenchmarkEngineIncrementalVsFull(b *testing.B) {
	setup := func(b *testing.B) (*core.Design, *engine.Engine, []engine.Move) {
		d, err := fixture.Suite("s1908")
		if err != nil {
			b.Fatal(err)
		}
		e, err := engine.New(d, engine.Config{TmaxPs: 1000})
		if err != nil {
			b.Fatal(err)
		}
		var moves []engine.Move
		for _, id := range d.Circuit.Outputs() {
			sw, err := engine.NewVthSwap(d, id, tech.HighVth)
			if err != nil {
				b.Fatal(err)
			}
			moves = append(moves, sw)
			if up, ok := engine.NewUpsize(d, id); ok {
				moves = append(moves, up)
			}
		}
		return d, e, moves
	}

	b.Run("incremental", func(b *testing.B) {
		_, e, moves := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mv := moves[i%len(moves)]
			if err := e.Apply(mv); err != nil {
				b.Fatal(err)
			}
			if _, err := e.DelayQuantile(0.99); err != nil {
				b.Fatal(err)
			}
			if _, err := e.LeakQuantile(0.99); err != nil {
				b.Fatal(err)
			}
			if err := e.Revert(mv); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("full", func(b *testing.B) {
		d, _, moves := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mv := moves[i%len(moves)]
			if err := mv.Apply(d); err != nil {
				b.Fatal(err)
			}
			sr, err := ssta.Analyze(d)
			if err != nil {
				b.Fatal(err)
			}
			if q := sr.Quantile(0.99); q <= 0 {
				b.Fatal("bad delay quantile")
			}
			acc, err := leakage.NewAccumulator(d)
			if err != nil {
				b.Fatal(err)
			}
			if q := acc.Quantile(0.99); q <= 0 {
				b.Fatal("bad leak quantile")
			}
			if err := mv.Revert(d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineScoreAll measures one exact scoring sweep of every
// PO-gate candidate through ScoreAll.
func BenchmarkEngineScoreAll(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(d, engine.Config{TmaxPs: 1000})
	if err != nil {
		b.Fatal(err)
	}
	var moves []engine.Move
	for _, id := range d.Circuit.Outputs() {
		sw, err := engine.NewVthSwap(d, id, tech.HighVth)
		if err != nil {
			b.Fatal(err)
		}
		moves = append(moves, sw)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ScoreAll(moves); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo100 measures 100 Monte Carlo dies end to end.
func BenchmarkMonteCarlo100(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := montecarlo.Run(d, montecarlo.Config{Samples: 100, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerStatistical measures a full statistical
// optimization of s432.
// BenchmarkYieldISVsPlain compares the cost of estimating a
// Y ≈ 99.9% timing yield to equal confidence: "plain" spends the full
// 2000-sample budget, "is" grows an importance-sampled budget only
// until its standard error matches the plain run's binomial SE. The
// samples/op metric is the demonstration — IS reaches the plain
// confidence width with an order of magnitude fewer samples.
func BenchmarkYieldISVsPlain(b *testing.B) {
	d, err := fixture.Suite("s880")
	if err != nil {
		b.Fatal(err)
	}
	sr, err := ssta.Analyze(d)
	if err != nil {
		b.Fatal(err)
	}
	tmax := sr.Quantile(0.999)
	const plainN = 2000
	pf := 1 - sr.Yield(tmax)
	targetSE := math.Sqrt(pf * (1 - pf) / plainN)
	shift := sr.ISShift(tmax)

	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := montecarlo.Run(d, montecarlo.Config{Samples: plainN, Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := yield.TimingIS(res, tmax); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(plainN, "samples/op")
	})
	b.Run("is", func(b *testing.B) {
		b.ReportAllocs()
		var used int
		for i := 0; i < b.N; i++ {
			total := &montecarlo.Result{}
			for batch, n := 0, 25; ; batch++ {
				res, err := montecarlo.Run(d, montecarlo.Config{
					Samples: n, Seed: stats.StreamSeed(int64(i+1), batch),
					Sampling: montecarlo.ImportanceSampling, TmaxPs: tmax, Shift: shift})
				if err != nil {
					b.Fatal(err)
				}
				if err := total.Append(res); err != nil {
					b.Fatal(err)
				}
				est, err := yield.TimingIS(total, tmax)
				if err != nil {
					b.Fatal(err)
				}
				have := len(total.DelaysPs)
				if (est.StdErr > 0 && est.StdErr <= targetSE) || have >= plainN {
					used = have
					break
				}
				n = have
			}
		}
		b.ReportMetric(float64(used), "samples/op")
	})
}

func BenchmarkOptimizerStatistical(b *testing.B) {
	base, err := fixture.Suite("s432")
	if err != nil {
		b.Fatal(err)
	}
	ref := base.Clone()
	dmin, err := opt.MinimumDelay(ref)
	if err != nil {
		b.Fatal(err)
	}
	o := opt.DefaultOptions(1.3 * dmin)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		if _, err := opt.Statistical(d, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerDeterministic measures a full deterministic
// optimization of s432.
func BenchmarkOptimizerDeterministic(b *testing.B) {
	base, err := fixture.Suite("s432")
	if err != nil {
		b.Fatal(err)
	}
	ref := base.Clone()
	dmin, err := opt.MinimumDelay(ref)
	if err != nil {
		b.Fatal(err)
	}
	o := opt.DefaultOptions(1.3 * dmin)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		if _, err := opt.Deterministic(d, o); err != nil {
			b.Fatal(err)
		}
	}
}
