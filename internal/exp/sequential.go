package exp

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/opt"
	"repro/internal/report"
	"repro/internal/tech"
)

// SequentialTable (S1) repeats the headline comparison on sequential
// (ISCAS89-class) circuits: the delay constraint is the clock period,
// timing endpoints are flip-flop data pins (plus primary outputs), and
// the flip-flops themselves join the dual-Vth/sizing move set.
func (ctx *Context) SequentialTable() (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Table S1 — sequential circuits: deterministic vs statistical (Tclk = %.2f·Tmin, η = %.0f%%)",
			ctx.TmaxFactor, 100*opt.DefaultOptions(1).YieldTarget),
		"circuit", "gates", "FFs", "Tmin [ps]", "det q99 [nW]", "stat q99 [nW]", "q99 improve",
		"stat yield(MC)", "HVT FFs")
	for _, name := range bench.SeqSuiteNames() {
		pr, err := ctx.Prepare(name, nil)
		if err != nil {
			return nil, err
		}
		pair, err := RunPair(pr)
		if err != nil {
			return nil, err
		}
		if !pair.DetRes.Feasible || !pair.StatRes.Feasible {
			ctx.recordInfeasible("s1", name)
			t.AddRow(name, pr.Base.Circuit.NumGates(), pr.Base.Circuit.NumDffs(),
				pr.DminPs, "infeasible", "-", "-", "-", "-")
			continue
		}
		mcStat, err := ctx.mcOn(pair.Stat, pr.TmaxPs)
		if err != nil {
			return nil, err
		}
		hvtFF := 0
		for _, f := range pair.Stat.Circuit.Dffs() {
			if pair.Stat.Vth[f] == tech.HighVth {
				hvtFF++
			}
		}
		yStat, err := mcStat.TimingYield(pr.TmaxPs)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, pr.Base.Circuit.NumGates(), pr.Base.Circuit.NumDffs(), pr.DminPs,
			pair.DetEval.LeakPctNW, pair.StatRes.LeakPctNW,
			improvement(pair.DetEval.LeakPctNW, pair.StatRes.LeakPctNW),
			fmt.Sprintf("%.4f", yStat),
			fmt.Sprintf("%d/%d", hvtFF, pair.Stat.Circuit.NumDffs()))
	}
	t.AddNote("Tmin = minimum clock period (worst FF-to-FF/PO path incl. setup) after greedy sizing")
	return t, nil
}
