package exp

import (
	"fmt"
	"time"

	"repro/internal/opt"
	"repro/internal/report"
	"repro/internal/scenario"
)

// DefaultScenarioSpec is the corner spec the scenario table uses when
// the context does not override it: the 2-temperature × 2-voltage
// product vl/vh × tn/t110 (four corners, worst-corner aggregation).
func DefaultScenarioSpec() *scenario.Spec {
	return &scenario.Spec{
		Temps:   []float64{0, 110},
		Corners: []string{"vl", "vh"},
	}
}

// ScenarioTable (experiment "e5") runs the statistical optimizer over a
// multi-corner scenario family and reports the per-corner end state:
// one committed assignment, evaluated at every corner of the matrix,
// with feasibility judged on the min-over-corners yield. The contrast
// with Table 3 is the point — a nominally-feasible assignment can miss
// its yield target at the hot/low-voltage corner, and the family
// optimizes against that directly.
func (ctx *Context) ScenarioTable() (*report.Table, error) {
	spec := ctx.Scenario
	canned := spec.IsZero()
	if canned {
		spec = DefaultScenarioSpec()
	}
	t := report.NewTable("", // titled below, from a run's corners
		"circuit", "corner", "yield(Tmax)", "leak q99 [nW]", "leak mean [nW]",
		"delay mean [ps]", "corner delay [ps]", "feasible", "time")
	corners := 0
	for _, name := range ctx.benchmarks() {
		pr, err := ctx.Prepare(name, nil)
		if err != nil {
			return nil, err
		}
		// The canned 4-corner envelope is ~45% slower at the hot/
		// low-voltage corner, so the nominal-headroom constraint
		// (1.3·Dmin) is structurally infeasible there. The canned
		// table carries its own envelope headroom so the default run
		// exercises a feasible multi-corner optimization; a spec
		// supplied via flags obeys -tmax-factor as given.
		if f := 1.9; canned && ctx.TmaxFactor < f {
			pr.TmaxPs = f * pr.DminPs
			pr.Opt = opt.DefaultOptions(pr.TmaxPs)
		}
		pr.Opt.Scenario = spec
		d := pr.Base.Clone()
		t0 := time.Now()
		res, err := opt.Statistical(d, pr.Opt)
		if err != nil {
			return nil, err
		}
		corners = len(res.Corners)
		el := time.Since(t0)
		if !res.Feasible {
			ctx.recordInfeasible("e5", name+" (scenario)")
		}
		for _, cm := range res.Corners {
			t.AddRow(name, cm.Name,
				fmt.Sprintf("%.4f", cm.YieldAtTmax),
				cm.LeakPctNW, cm.LeakMeanNW, cm.DelayMeanPs, cm.CornerDelayPs,
				"-", "-")
		}
		t.AddRow(name, "aggregate",
			fmt.Sprintf("%.4f", res.YieldAtTmax),
			res.LeakPctNW, res.LeakMeanNW, "-", "-",
			fmt.Sprintf("%v", res.Feasible), el.Round(time.Millisecond).String())
	}
	t.AddNote("one shared assignment per circuit; per-corner rows re-score it at each operating point")
	if canned {
		t.AddNote("Tmax = 1.90·Dmin: the hot/low-voltage corner needs envelope headroom the nominal 1.30 lacks")
	}
	t.Title = fmt.Sprintf("E5 — multi-corner statistical optimization (%d corners, %s aggregation, η = %.0f%%)",
		corners, spec.Aggregation(), 100*opt.DefaultOptions(1).YieldTarget)
	t.AddNote("aggregate yield = min over corners; aggregate leakage = %s over corners", spec.Aggregation())
	return t, nil
}
