package opt_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/opt"
	"repro/internal/sta"
	"repro/internal/tech"
)

func suite(t testing.TB, name string) *core.Design {
	t.Helper()
	d, err := fixture.Suite(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func nominalDelay(t testing.TB, d *core.Design) float64 {
	t.Helper()
	r, err := sta.Analyze(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r.MaxDelay
}

func TestOptionsValidate(t *testing.T) {
	if err := opt.DefaultOptions(100).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*opt.Options){
		func(o *opt.Options) { o.TmaxPs = 0 },
		func(o *opt.Options) { o.CornerSigma = 7 },
		func(o *opt.Options) { o.CornerSigma = -0.1 },
		func(o *opt.Options) { o.YieldTarget = 1 },
		func(o *opt.Options) { o.LeakPercentile = 0 },
		func(o *opt.Options) { o.EnableVth, o.EnableSizing = false, false },
		func(o *opt.Options) { o.MaxMoves = -1 },
	}
	for i, mod := range bad {
		o := opt.DefaultOptions(100)
		mod(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

// TestMaxMovesCapsTheRun: MaxMoves bounds the moves a whole run
// applies — every margin's phase A and phase B together — in each flow
// that honours it, and progress reports count those same run-wide
// moves, so their Moves never falls.
func TestMaxMovesCapsTheRun(t *testing.T) {
	for _, name := range []string{"s432", "s880"} {
		d := suite(t, name)
		dmin, err := opt.MinimumDelay(d.Clone())
		if err != nil {
			t.Fatal(err)
		}
		budget := 2 * allHVTFloor(t, d)
		for _, maxMoves := range []int{50, 150} {
			var reported []int
			o := opt.DefaultOptions(1.3 * dmin)
			o.MaxMoves = maxMoves
			o.Progress = func(ev opt.Progress) { reported = append(reported, ev.Moves) }
			check := func(flow string, moves int) {
				t.Helper()
				if moves > maxMoves {
					t.Errorf("%s %s: %d moves at MaxMoves %d", name, flow, moves, maxMoves)
				}
				for i, m := range reported {
					if m > moves || (i > 0 && m < reported[i-1]) {
						t.Errorf("%s %s at MaxMoves %d: progress report %d has Moves %d (previous %d, run %d)",
							name, flow, maxMoves, i, m, reported[max(i-1, 0)], moves)
						break
					}
				}
				reported = reported[:0]
			}
			sr, err := opt.Statistical(d.Clone(), o)
			if err != nil {
				t.Fatal(err)
			}
			check("statistical", sr.Moves)
			dr, err := opt.Deterministic(d.Clone(), o)
			if err != nil {
				t.Fatal(err)
			}
			check("deterministic", dr.Moves)
			ur, err := opt.MinimizeDelayUnderLeakBudget(d.Clone(), o, budget)
			if err != nil {
				t.Fatal(err)
			}
			check("dual", ur.Moves)
		}
	}
}

func TestMinimumDelayImproves(t *testing.T) {
	d := suite(t, "s432")
	before := nominalDelay(t, d)
	dmin, err := opt.MinimumDelay(d)
	if err != nil {
		t.Fatal(err)
	}
	if dmin >= before {
		t.Errorf("MinimumDelay %g did not improve on %g", dmin, before)
	}
	if got := nominalDelay(t, d); math.Abs(got-dmin) > 1e-9 {
		t.Errorf("returned Dmin %g != design state %g", dmin, got)
	}
	// Minimum delay should be a solid improvement for a min-size start.
	// (The parasitic-delay floor τ·p per stage is size-independent, so
	// sizing can only attack the effort component; ~10-20% is the
	// realistic win at these wire/PO loads.)
	if dmin > 0.90*before {
		t.Errorf("Dmin %g is a <10%% improvement over %g; sizing loop too weak", dmin, before)
	}
}

func TestDeterministicMeetsConstraintAndRecoversLeakage(t *testing.T) {
	d := suite(t, "s432")
	ref := d.Clone()
	dmin, err := opt.MinimumDelay(ref)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions(1.3 * dmin)
	res, err := opt.Deterministic(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %+v", res)
	}
	// The corner delay meets Tmax, so the nominal delay sits well
	// below it.
	if res.NominalDelayPs > o.TmaxPs {
		t.Errorf("nominal delay %g exceeds Tmax %g", res.NominalDelayPs, o.TmaxPs)
	}
	cr, err := sta.AnalyzeCorner(d, o.TmaxPs, o.CornerSigma)
	if err != nil {
		t.Fatal(err)
	}
	if cr.MaxDelay > o.TmaxPs+1e-6 {
		t.Errorf("corner delay %g exceeds Tmax %g", cr.MaxDelay, o.TmaxPs)
	}
	// Phase B must have used both move flavors and produced HVT gates.
	if res.VthSwaps == 0 {
		t.Error("no Vth swaps applied")
	}
	if d.CountHVT() == 0 {
		t.Error("no HVT gates in result")
	}
	// Leakage must be below the minimum-size all-LVT start plus one
	// upsize, the design a sizing-only run capped at one move leaves
	// (it misses Tmax): most gates off the critical path go HVT, which
	// outweighs the upsizing the optimized design needed.
	sizedOnly := suite(t, "s432")
	resSized, err := opt.Deterministic(sizedOnly, opt.Options{
		TmaxPs: o.TmaxPs, CornerSigma: o.CornerSigma, YieldTarget: 0.99,
		LeakPercentile: 0.99, EnableVth: false, EnableSizing: true, MaxMoves: 1, // one phase-A upsize
	})
	if err != nil {
		t.Fatal(err)
	}
	if resSized.Moves != 1 || resSized.VthSwaps != 0 || sizedOnly.CountHVT() != 0 {
		t.Errorf("sized-only reference: %d moves, %d swaps, %d HVT gates; want 1, 0, 0",
			resSized.Moves, resSized.VthSwaps, sizedOnly.CountHVT())
	}
	if d.TotalLeak() >= sizedOnly.TotalLeak() {
		t.Errorf("optimized leakage %g not below sized-only %g", d.TotalLeak(), sizedOnly.TotalLeak())
	}
}

func TestDeterministicRespectsMoveSetToggles(t *testing.T) {
	dmin, err := opt.MinimumDelay(suite(t, "s499"))
	if err != nil {
		t.Fatal(err)
	}
	// Sizing-only: no swaps, and the design stays all-LVT.
	ds := suite(t, "s499")
	o := opt.DefaultOptions(1.3 * dmin)
	o.EnableVth = false
	res, err := opt.Deterministic(ds, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Errorf("sizing-only run infeasible at 1.3·Dmin: %+v", res)
	}
	if res.VthSwaps != 0 || ds.CountHVT() != 0 {
		t.Errorf("Vth moves applied with swaps disabled: %d swaps, %d HVT gates", res.VthSwaps, ds.CountHVT())
	}
	// Vth-only: no sizing moves.
	dv := suite(t, "s499")
	o = opt.DefaultOptions(1)
	o.EnableSizing = false
	// With sizing disabled entirely, the min-size start must already
	// meet the corner constraint: set Tmax just above it.
	cr, err := sta.AnalyzeCorner(dv, 1, o.CornerSigma)
	if err != nil {
		t.Fatal(err)
	}
	o.TmaxPs = cr.MaxDelay * 1.05
	res, err = opt.Deterministic(dv, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SizeDowns != 0 || res.SizeUps != 0 {
		t.Errorf("sizing moves applied with sizing disabled: %+v", res)
	}
	if res.VthSwaps == 0 {
		t.Error("no swaps in Vth-only mode")
	}
}

func TestStatisticalMeetsYieldTarget(t *testing.T) {
	d := suite(t, "s432")
	ref := d.Clone()
	dmin, err := opt.MinimumDelay(ref)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions(1.3 * dmin)
	res, err := opt.Statistical(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("statistical optimizer infeasible: yield %g", res.YieldAtTmax)
	}
	if res.YieldAtTmax < o.YieldTarget {
		t.Errorf("yield %g below target %g", res.YieldAtTmax, o.YieldTarget)
	}
	if res.VthSwaps == 0 {
		t.Error("no Vth swaps applied")
	}
	// MC confirmation of the SSTA yield claim (tolerance: Clark +
	// finite samples).
	mc, err := montecarlo.Run(d, montecarlo.Config{Samples: 2000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if y := mustYield(t, mc, o.TmaxPs); y < o.YieldTarget-0.03 {
		t.Errorf("MC yield %g far below target %g", y, o.YieldTarget)
	}
}

// TestStatisticalBeatsDeterministic is the headline reproduction (T3
// in miniature): at the same Tmax, with the deterministic optimizer
// running under its guard band and the statistical optimizer under the
// explicit yield constraint, the statistical result must have lower
// 99th-percentile leakage while still meeting the yield target.
func TestStatisticalBeatsDeterministic(t *testing.T) {
	base := suite(t, "s432")
	ref := base.Clone()
	dmin, err := opt.MinimumDelay(ref)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions(1.3 * dmin)

	det := base.Clone()
	if _, err := opt.Deterministic(det, o); err != nil {
		t.Fatal(err)
	}
	detEval, err := opt.EvaluateStatistical(det, o)
	if err != nil {
		t.Fatal(err)
	}

	st := base.Clone()
	stRes, err := opt.Statistical(st, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stRes.Feasible {
		t.Fatalf("statistical infeasible")
	}
	t.Logf("det: q99=%.0f nW yield=%.4f | stat: q99=%.0f nW yield=%.4f",
		detEval.LeakPctNW, detEval.YieldAtTmax, stRes.LeakPctNW, stRes.YieldAtTmax)
	if stRes.LeakPctNW >= detEval.LeakPctNW {
		t.Errorf("statistical q99 leakage %g not below deterministic %g",
			stRes.LeakPctNW, detEval.LeakPctNW)
	}
	// The win should be substantive (paper reports double-digit
	// percentages); require at least 5% to catch regressions without
	// overfitting to one circuit.
	if improve := 1 - stRes.LeakPctNW/detEval.LeakPctNW; improve < 0.05 {
		t.Errorf("improvement only %.1f%%", improve*100)
	}
}

func TestEvaluateStatisticalDoesNotMutate(t *testing.T) {
	d := suite(t, "s499")
	vthBefore := append([]tech.VthClass(nil), d.Vth...)
	sizeBefore := append([]float64(nil), d.Size...)
	if _, err := opt.EvaluateStatistical(d, opt.DefaultOptions(1e5)); err != nil {
		t.Fatal(err)
	}
	for i := range vthBefore {
		if d.Vth[i] != vthBefore[i] || d.Size[i] != sizeBefore[i] {
			t.Fatal("EvaluateStatistical mutated the design")
		}
	}
}

func TestStatisticalInfeasibleTargetReported(t *testing.T) {
	d := suite(t, "s432")
	o := opt.DefaultOptions(1) // 1 ps: unreachable
	o.MaxMoves = 50
	res, err := opt.Statistical(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("1 ps constraint reported feasible")
	}
}

func TestDeterministicInfeasibleTargetReported(t *testing.T) {
	d := suite(t, "s432")
	o := opt.DefaultOptions(1)
	o.MaxMoves = 50
	res, err := opt.Deterministic(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("1 ps constraint reported feasible")
	}
}

func TestRecoveryMovesAreMonotone(t *testing.T) {
	// After optimization no gate may sit above the max ladder size or
	// below the min, and every assignment stays on the ladder.
	d := suite(t, "s499")
	ref := d.Clone()
	dmin, err := opt.MinimumDelay(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Deterministic(d, opt.DefaultOptions(1.25*dmin)); err != nil {
		t.Fatal(err)
	}
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		if d.Lib.SizeIndex(d.Size[g.ID]) < 0 {
			t.Fatalf("gate %s size %g off ladder", g.Name, d.Size[g.ID])
		}
		if !d.Vth[g.ID].Valid() {
			t.Fatalf("gate %s invalid vth", g.Name)
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
