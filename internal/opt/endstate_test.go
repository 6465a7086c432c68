package opt_test

import (
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/leakage"
	"repro/internal/opt"
	"repro/internal/scenario"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/tech"
)

// freshEndState computes the end-state fields of a StatResult for d
// from fresh analyses: ssta.Analyze and leakage.Exact of the design,
// and, under a scenario spec, of every corner design, plus each
// corner's deterministic corner STA. The fields the optimizer counts
// (moves, runtime) stay zero.
func freshEndState(t *testing.T, d *core.Design, o opt.Options) opt.StatResult {
	t.Helper()
	sr, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	an, err := leakage.Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	var want opt.StatResult
	want.YieldAtTmax = sr.Yield(o.TmaxPs)
	want.DelayMeanPs = sr.Delay.Mean
	want.DelaySigmaPs = sr.Delay.Sigma()
	want.NominalDelayPs = sr.Delay.Mean
	want.LeakMeanNW = an.MeanNW
	want.LeakPctNW = an.Quantile(o.LeakPercentile)
	want.NominalLeakNW = d.TotalLeak()
	if o.Scenario != nil {
		rs, err := o.Scenario.Resolve(d.Lib, d.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		per := make([]float64, len(rs))
		for i, r := range rs {
			cd, err := d.CornerView(r.Lib, r.BiasVth)
			if err != nil {
				t.Fatal(err)
			}
			csr, err := ssta.Analyze(cd)
			if err != nil {
				t.Fatal(err)
			}
			can, err := leakage.Exact(cd)
			if err != nil {
				t.Fatal(err)
			}
			cst, err := sta.AnalyzeCorner(cd, o.TmaxPs, o.CornerSigma)
			if err != nil {
				t.Fatal(err)
			}
			cm := engine.CornerMetrics{
				Name:          r.Name,
				YieldAtTmax:   csr.Yield(o.TmaxPs),
				LeakPctNW:     can.Quantile(o.LeakPercentile),
				LeakMeanNW:    can.MeanNW,
				DelayMeanPs:   csr.Delay.Mean,
				CornerDelayPs: cst.MaxDelay,
				NominalLeakNW: cd.TotalLeak(),
			}
			want.Corners = append(want.Corners, cm)
			per[i] = cm.LeakPctNW
			if i == 0 || cm.YieldAtTmax < want.YieldAtTmax {
				want.YieldAtTmax = cm.YieldAtTmax
			}
		}
		want.LeakPctNW = aggregate(o.Scenario, per)
	}
	want.Feasible = want.YieldAtTmax >= o.YieldTarget
	return want
}

// aggregate folds per-corner values as the family does: one value
// passes through, a weighted spec takes the mean in corner order, the
// default the worst corner (max).
func aggregate(s *scenario.Spec, per []float64) float64 {
	if len(per) == 1 {
		return per[0]
	}
	if s.Weighted() {
		w := 1 / float64(len(per))
		sum := 0.0
		for _, v := range per {
			sum += w * v
		}
		return sum
	}
	return slices.Max(per)
}

// compareEndState fails unless every end-state field of got equals
// want's bit for bit.
func compareEndState(t *testing.T, got *opt.StatResult, want opt.StatResult) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"YieldAtTmax", got.YieldAtTmax, want.YieldAtTmax},
		{"DelayMeanPs", got.DelayMeanPs, want.DelayMeanPs},
		{"DelaySigmaPs", got.DelaySigmaPs, want.DelaySigmaPs},
		{"NominalDelayPs", got.NominalDelayPs, want.NominalDelayPs},
		{"LeakMeanNW", got.LeakMeanNW, want.LeakMeanNW},
		{"LeakPctNW", got.LeakPctNW, want.LeakPctNW},
		{"NominalLeakNW", got.NominalLeakNW, want.NominalLeakNW},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s %v, fresh analysis %v", f.name, f.got, f.want)
		}
	}
	if got.Feasible != want.Feasible {
		t.Errorf("Feasible %v, fresh analysis %v", got.Feasible, want.Feasible)
	}
	if len(got.Corners) != len(want.Corners) {
		t.Fatalf("%d corner rows, fresh analysis has %d", len(got.Corners), len(want.Corners))
	}
	for i, g := range got.Corners {
		w := want.Corners[i]
		if g.Name != w.Name {
			t.Errorf("corner %d named %q, want %q", i, g.Name, w.Name)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"YieldAtTmax", g.YieldAtTmax, w.YieldAtTmax},
			{"LeakPctNW", g.LeakPctNW, w.LeakPctNW},
			{"LeakMeanNW", g.LeakMeanNW, w.LeakMeanNW},
			{"DelayMeanPs", g.DelayMeanPs, w.DelayMeanPs},
			{"CornerDelayPs", g.CornerDelayPs, w.CornerDelayPs},
			{"NominalLeakNW", g.NominalLeakNW, w.NominalLeakNW},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Errorf("corner %q: %s %v, fresh analysis %v", g.Name, f.name, f.got, f.want)
			}
		}
	}
}

// TestStatEndStateMatchesFreshAnalyses checks that the end state a
// statistical run reports describes the design it returns exactly as
// fresh analyses of that design do, bit for bit: on the nominal path,
// with one move family switched off, under scenario specs whose
// first corner is and is not the base design, for EvaluateStatistical,
// for an annealing run, and for a capped run that restores an earlier
// margin's design as its incumbent.
func TestStatEndStateMatchesFreshAnalyses(t *testing.T) {
	ctx := exp.NewContext(io.Discard)
	for _, tc := range []struct {
		name    string
		circuit string
		mutate  func(*opt.Options)
		run     func(*core.Design, opt.Options) (*opt.StatResult, error)
		restore bool // the returned design must differ from the sweep's last state
	}{
		{name: "nominal s432", circuit: "s432"},
		{name: "nominal s880", circuit: "s880"},
		{name: "sizing only", circuit: "s432", mutate: func(o *opt.Options) { o.EnableVth = false }},
		{name: "vth only", circuit: "s432", mutate: func(o *opt.Options) {
			// The min-size start misses 1.3·Dmin; without sizing, loosen
			// Tmax until it has slack to spend on swaps.
			o.EnableSizing = false
			o.TmaxPs *= 1.2
		}},
		{name: "four corners, nominal first", circuit: "s432", mutate: func(o *opt.Options) {
			o.Scenario = &scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vn", "vh"}, Aggregate: "weighted"}
		}},
		{name: "vh,vn", circuit: "s432", mutate: func(o *opt.Options) {
			o.Scenario = &scenario.Spec{Corners: []string{"vh", "vn"}}
		}},
		{name: "evaluate", circuit: "s432", run: opt.EvaluateStatistical},
		{name: "evaluate four corners", circuit: "s432", run: opt.EvaluateStatistical, mutate: func(o *opt.Options) {
			o.Scenario = &scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vn", "vh"}}
		}},
		{name: "anneal", circuit: "s432", run: func(d *core.Design, o opt.Options) (*opt.StatResult, error) {
			cfg := opt.DefaultAnnealConfig()
			cfg.Moves = 3000
			return opt.Anneal(d, o, cfg)
		}},
		{name: "capped s432", circuit: "s432", mutate: func(o *opt.Options) { o.MaxMoves = 150 }, restore: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr, err := ctx.Prepare(tc.circuit, nil)
			if err != nil {
				t.Fatal(err)
			}
			o := pr.Opt
			if tc.mutate != nil {
				tc.mutate(&o)
			}
			d := pr.Base.Clone()
			// The design as the last committed move left it: every
			// optimizer reports progress after each move it keeps.
			var lastVth []tech.VthClass
			var lastSize []float64
			o.Progress = func(opt.Progress) {
				lastVth = append(lastVth[:0], d.Vth...)
				lastSize = append(lastSize[:0], d.Size...)
			}
			run := tc.run
			if run == nil {
				run = opt.Statistical
			}
			res, err := run(d, o)
			if err != nil {
				t.Fatal(err)
			}
			if tc.run == nil && res.Moves == 0 {
				t.Fatal("the run committed no moves")
			}
			if tc.restore {
				if lastVth == nil {
					t.Fatal("the run reported no progress")
				}
				if slices.Equal(lastVth, d.Vth) && slices.Equal(lastSize, d.Size) {
					t.Fatal("the run returned its last state; want an earlier margin's incumbent")
				}
			}
			compareEndState(t, res, freshEndState(t, d, o))
		})
	}
}
