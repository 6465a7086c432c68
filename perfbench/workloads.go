package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/opt"
	"repro/internal/ssta"
	"repro/internal/tech"
	"repro/internal/variation"
	"repro/internal/verilog"
	"repro/internal/yield"
)

// tmaxFactor is the delay constraint as a multiple of Dmin: the paper's
// headline setting, and the daemon's default.
const tmaxFactor = 1.3

// op is one operation of a workload's multiset. run is the timed part;
// it must leave every output check to the returned outcome's verify.
type op struct {
	kind string // names the op within the multiset, e.g. "s1908/statistical"
	run  func(ctx context.Context, tr *tracer) (outcome, error)
}

type outcome struct {
	leakQ99NW float64 // achieved 99th-percentile leakage [nW]
	feasible  bool    // the result meets its constraint
	verify    func(tr *tracer) error
	layer     map[string]float64 // per-op layer numbers the op measured itself
}

// instance is one set-up of a workload: its designs, the op multiset
// over them, and what a run needs around the measured window.
type instance struct {
	ops     []op // one round of the multiset
	warmup  op   // run once at the end of set-up
	targets []probeTarget
	final   func(ctx context.Context, tr *tracer) error // once per run, untimed; nil for none
	close   func()
}

type workload struct {
	name string
	// roundSeconds is the nominal wall time of one round of the multiset
	// on a 2-CPU x86-64 box; a run executes ceil(seconds/roundSeconds)
	// rounds, so the op count depends on --seconds alone.
	roundSeconds float64
	setup        func(ctx context.Context, tr *tracer) (*instance, error)
}

var workloads = []workload{
	{"stat-opt", 8.0, setupStatOpt},
	{"signoff-yield", 3.4, setupSignoff},
	{"daemon-jobs", 3.6, setupDaemon},
}

// newDesign binds a circuit to the default 100nm library and variation
// model, as leakopt and the daemon do.
func newDesign(c *logic.Circuit) (*core.Design, error) {
	p, err := tech.Preset("100nm")
	if err != nil {
		return nil, err
	}
	lib, err := tech.NewLibrary(p)
	if err != nil {
		return nil, err
	}
	vm, err := variation.New(variation.Default(p.LeffNom))
	if err != nil {
		return nil, err
	}
	return core.NewDesign(c, lib, vm)
}

// suiteDesign generates a synthetic suite circuit, binds it, and sets
// the delay constraint from its minimum delay.
func suiteDesign(ctx context.Context, tr *tracer, name string) (probeTarget, error) {
	t := probeTarget{name: name}
	cfg, err := bench.SuiteConfig(name)
	if err != nil {
		return t, err
	}
	if err := tr.call("bench.Generate", func() (err error) {
		t.c, err = bench.Generate(cfg)
		return err
	}); err != nil {
		return t, err
	}
	if t.d, err = newDesign(t.c); err != nil {
		return t, err
	}
	var dmin float64
	if err := tr.call("opt.MinimumDelay", func() (err error) {
		dmin, err = opt.MinimumDelayCtx(ctx, t.d.Clone())
		return err
	}); err != nil {
		return t, err
	}
	t.tmax = tmaxFactor * dmin
	return t, nil
}

// optimize runs the statistical optimizer on d in place, attributing
// its time to phases when tracing.
func optimize(ctx context.Context, tr *tracer, d *core.Design, o opt.Options) (*opt.StatResult, map[string]float64, error) {
	layer := make(map[string]float64)
	var pc *phaseClock
	start := time.Now()
	if tr.on {
		pc = &phaseClock{start: start}
		o.Progress = func(p opt.Progress) { pc.mark(p.Phase) }
	}
	id := tr.begin("opt.StatisticalCtx")
	sr, err := opt.StatisticalCtx(ctx, d, o)
	end := time.Now()
	if pc != nil {
		for _, iv := range pc.addPhases(layer, end) {
			tr.add("opt.phase."+iv.phase, id, iv.start, iv.end)
		}
	}
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	layer["opt.run_s"] = end.Sub(start).Seconds()
	layer["opt.moves"] = float64(sr.Moves)
	return sr, layer, nil
}

// checkStat re-verifies an optimized design with an independent full
// SSTA: the timing yield at Tmax must reach the target. It returns the
// analysis for callers that need more of it.
func checkStat(tr *tracer, d *core.Design, o opt.Options, sr *opt.StatResult) (*ssta.Result, error) {
	if !sr.Feasible {
		return nil, fmt.Errorf("optimizer reports the constraint missed (yield %.6f)", sr.YieldAtTmax)
	}
	if !finitePos(sr.LeakPctNW) {
		return nil, fmt.Errorf("leakage percentile %g not finite and positive", sr.LeakPctNW)
	}
	var r *ssta.Result
	if err := tr.call("ssta.Analyze", func() (err error) {
		r, err = ssta.Analyze(d)
		return err
	}); err != nil {
		return nil, err
	}
	if y := r.Yield(o.TmaxPs); !(y >= o.YieldTarget) {
		return nil, fmt.Errorf("independent SSTA yield %.6f at Tmax %.1f ps below target %.2f", y, o.TmaxPs, o.YieldTarget)
	}
	return r, nil
}

func finitePos(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ---- stat-opt: the paper's flow on fresh clones ----

func setupStatOpt(ctx context.Context, tr *tracer) (*instance, error) {
	in := &instance{close: func() {}}
	for _, name := range []string{"s1908", "s2670", "s3540"} {
		t, err := suiteDesign(ctx, tr, name)
		if err != nil {
			return nil, err
		}
		in.targets = append(in.targets, t)
		in.ops = append(in.ops, statOp(t))
	}
	in.warmup = in.ops[0]
	return in, nil
}

func statOp(t probeTarget) op {
	o := opt.DefaultOptions(t.tmax)
	return op{kind: t.name + "/statistical", run: func(ctx context.Context, tr *tracer) (outcome, error) {
		d := t.d.Clone()
		sr, layer, err := optimize(ctx, tr, d, o)
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			leakQ99NW: sr.LeakPctNW,
			feasible:  sr.Feasible,
			layer:     layer,
			verify: func(tr *tracer) error {
				_, err := checkStat(tr, d, o, sr)
				return err
			},
		}, nil
	}}
}

// ---- signoff-yield: Monte Carlo and importance-sampled sign-off ----

const (
	signoffDies = 12000 // plain MC scoreboard size: about a second per op
	isRelErr    = 0.03  // IS stops at this relative standard error of pf
	isMaxDies   = 51200
	isQuantile  = 0.999 // IS aims at the delay the SSTA puts at Y = 99.9%
)

// signoffSeeds gives each design's MC seeds, one op each. The odd op
// count per round puts the median op inside the s1355 cluster instead
// of in the gap between the two designs' op times, where it would swing
// with the extremes of both.
var signoffSeeds = []struct {
	name  string
	seeds []int64
}{{"s880", []int64{1}}, {"s1355", []int64{1, 2}}}

func setupSignoff(ctx context.Context, tr *tracer) (*instance, error) {
	in := &instance{close: func() {}}
	for _, ds := range signoffSeeds {
		name := ds.name
		t, err := suiteDesign(ctx, tr, name)
		if err != nil {
			return nil, err
		}
		o := opt.DefaultOptions(t.tmax)
		sr, _, err := optimize(ctx, tr, t.d, o)
		if err != nil {
			return nil, err
		}
		r, err := checkStat(tr, t.d, o, sr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		t999 := r.Quantile(isQuantile)
		in.targets = append(in.targets, t)
		for _, seed := range ds.seeds {
			in.ops = append(in.ops, signoffOp(t, t999, seed))
		}
	}
	in.warmup = in.ops[0]
	return in, nil
}

func signoffOp(t probeTarget, t999 float64, seed int64) op {
	return op{kind: fmt.Sprintf("%s/seed%d", t.name, seed), run: func(ctx context.Context, tr *tracer) (outcome, error) {
		var mc, isRes *montecarlo.Result
		if err := tr.call("montecarlo.RunCtx", func() (err error) {
			mc, err = montecarlo.RunCtx(ctx, t.d, montecarlo.Config{Samples: signoffDies, Seed: seed})
			return err
		}); err != nil {
			return outcome{}, err
		}
		var est yield.ISEstimate
		isStart := time.Now()
		if err := tr.call("yield.AdaptiveTimingIS", func() (err error) {
			est, isRes, err = yield.AdaptiveTimingIS(ctx, t.d, montecarlo.Config{Seed: seed}, t999,
				yield.ISBudget{RelErrTarget: isRelErr, Max: isMaxDies})
			return err
		}); err != nil {
			return outcome{}, err
		}
		layer := map[string]float64{
			"yield.is_s":       time.Since(isStart).Seconds(),
			"yield.is_samples": float64(len(isRes.DelaysPs)),
			"yield.is_ess":     est.ESS,
			"yield.is_rel_err": est.RelErr,
		}
		return outcome{
			leakQ99NW: mc.LeakQuantile(0.99),
			feasible:  est.RelErr <= isRelErr,
			layer:     layer,
			verify:    func(tr *tracer) error { return checkSignoff(tr, mc, est, t.tmax, t999) },
		}, nil
	}}
}

// checkSignoff requires finite estimates with a positive effective
// sample size, and an IS failure probability within three combined
// standard errors of the plain-MC one wherever plain MC saw failures.
func checkSignoff(tr *tracer, mc *montecarlo.Result, est yield.ISEstimate, tmax, t999 float64) error {
	return tr.call("yield.TimingIS", func() error {
		y, err := mc.TimingYield(tmax)
		if err != nil {
			return err
		}
		plain, err := yield.TimingIS(mc, t999)
		if err != nil {
			return err
		}
		leak := mc.LeakQuantile(0.99)
		if !finite(y, plain.FailProb, plain.StdErr, est.FailProb, est.StdErr, est.ESS) || !finitePos(leak) {
			return fmt.Errorf("non-finite sign-off estimate (yield %g, pf %g±%g, IS pf %g±%g, ESS %g, leak %g)",
				y, plain.FailProb, plain.StdErr, est.FailProb, est.StdErr, est.ESS, leak)
		}
		if !(est.ESS > 0) {
			return fmt.Errorf("IS effective sample size %g", est.ESS)
		}
		if plain.FailProb > 0 {
			if diff, tol := math.Abs(est.FailProb-plain.FailProb), 3*math.Hypot(est.StdErr, plain.StdErr); diff > tol {
				return fmt.Errorf("IS pf %.3g and plain-MC pf %.3g differ by %.3g > 3 combined SE %.3g",
					est.FailProb, plain.FailProb, diff, tol)
			}
		}
		return nil
	})
}

// netlists renders a circuit in both input formats the daemon accepts.
func netlists(c *logic.Circuit) (benchText, verilogText string, err error) {
	var b, v strings.Builder
	if err := bench.Write(&b, c); err != nil {
		return "", "", err
	}
	if err := verilog.Write(&v, c); err != nil {
		return "", "", err
	}
	return b.String(), v.String(), nil
}
