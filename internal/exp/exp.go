// Package exp contains the reproduction harness: one driver per table,
// figure, and ablation of the (reconstructed) evaluation, shared by
// cmd/experiments and the root bench_test.go. See DESIGN.md §5 for the
// experiment index and EXPERIMENTS.md for expected-vs-measured notes.
package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/opt"
	"repro/internal/scenario"
	"repro/internal/tech"
	"repro/internal/variation"
)

// Context fixes the shared parameters of an experiment run.
type Context struct {
	// Benchmarks to run (suite names). Empty ⇒ DefaultBenchmarks.
	Benchmarks []string
	// TmaxFactor sets the delay constraint Tmax = factor·Dmin.
	TmaxFactor float64
	// MCSamples is the Monte Carlo budget per evaluation.
	MCSamples int
	// Seed drives Monte Carlo sampling.
	Seed int64
	// Sampling selects the Monte Carlo scheme (plain, LHS, or
	// importance sampling; IS aims its proposal at each evaluation's
	// Tmax).
	Sampling montecarlo.Sampling
	// TechParams overrides the technology (nil ⇒ the 100nm preset).
	TechParams *tech.Params
	// Scenario overrides the corner matrix used by the scenario table
	// (nil/zero ⇒ DefaultScenarioSpec).
	Scenario *scenario.Spec
	// Out receives rendered tables/series.
	Out io.Writer

	// Infeasible collects "experiment: circuit (flow)" entries for
	// headline-table rows whose optimizer missed the constraint, so
	// cmd/experiments can exit non-zero. Sweep experiments that probe
	// constraint limits on purpose (e.g. the technology-scaling figure)
	// do not record here.
	Infeasible []string
}

// recordInfeasible notes a missed constraint in a headline table.
func (ctx *Context) recordInfeasible(exp, detail string) {
	ctx.Infeasible = append(ctx.Infeasible, fmt.Sprintf("%s: %s", exp, detail))
}

// DefaultBenchmarks is the subset used by the heavier experiments;
// Table 1 always reports the full suite.
var DefaultBenchmarks = []string{"s432", "s880", "s1908", "s2670"}

// NewContext returns the default experiment context writing to w.
func NewContext(w io.Writer) *Context {
	return &Context{
		Benchmarks: DefaultBenchmarks,
		TmaxFactor: 1.3,
		MCSamples:  2000,
		Seed:       1,
		Out:        w,
	}
}

func (ctx *Context) benchmarks() []string {
	if len(ctx.Benchmarks) == 0 {
		return DefaultBenchmarks
	}
	return ctx.Benchmarks
}

// Prepared bundles everything the experiments need about one
// benchmark: the fresh design, its minimum nominal delay, and the
// derived constraint.
type Prepared struct {
	Name   string
	Base   *core.Design // min-size all-LVT starting point
	DminPs float64
	TmaxPs float64
	Opt    opt.Options
}

// Prepare builds the design for a suite circuit and derives Dmin/Tmax.
// The variation model can be overridden by vm (nil ⇒ default).
func (ctx *Context) Prepare(name string, vm *variation.Model) (*Prepared, error) {
	p := ctx.TechParams
	if p == nil {
		p = tech.Default100nm()
	}
	lib, err := tech.NewLibrary(p)
	if err != nil {
		return nil, err
	}
	if vm == nil {
		vm, err = variation.New(variation.Default(p.LeffNom))
		if err != nil {
			return nil, err
		}
	}
	cfg, err := bench.SuiteConfig(name)
	if err != nil {
		return nil, err
	}
	c, err := bench.Generate(cfg)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDesign(c, lib, vm)
	if err != nil {
		return nil, err
	}
	ref := d.Clone()
	dmin, err := opt.MinimumDelay(ref)
	if err != nil {
		return nil, err
	}
	tf := ctx.TmaxFactor
	if tf <= 1 {
		tf = 1.3
	}
	pr := &Prepared{
		Name:   name,
		Base:   d,
		DminPs: dmin,
		TmaxPs: tf * dmin,
	}
	pr.Opt = opt.DefaultOptions(pr.TmaxPs)
	return pr, nil
}

// OptimizedPair holds the deterministic and statistical results for
// one benchmark, evaluated on the common statistical scoreboard.
type OptimizedPair struct {
	Prepared *Prepared

	Det     *core.Design
	DetRes  *opt.Result
	DetEval *opt.StatResult

	Stat    *core.Design
	StatRes *opt.StatResult

	DetTime, StatTime time.Duration
}

// RunPair optimizes a prepared benchmark with both flows.
func RunPair(pr *Prepared) (*OptimizedPair, error) {
	pair := &OptimizedPair{Prepared: pr}

	pair.Det = pr.Base.Clone()
	t0 := time.Now()
	dres, err := opt.Deterministic(pair.Det, pr.Opt)
	if err != nil {
		return nil, err
	}
	pair.DetTime = time.Since(t0)
	pair.DetRes = dres
	pair.DetEval, err = opt.EvaluateStatistical(pair.Det, pr.Opt)
	if err != nil {
		return nil, err
	}

	pair.Stat = pr.Base.Clone()
	t1 := time.Now()
	sres, err := opt.Statistical(pair.Stat, pr.Opt)
	if err != nil {
		return nil, err
	}
	pair.StatTime = time.Since(t1)
	pair.StatRes = sres
	return pair, nil
}

// mcOn runs the context's Monte Carlo on a design. tmaxPs is the
// timing constraint of the evaluation — importance sampling aims its
// proposal there (the other schemes ignore it).
func (ctx *Context) mcOn(d *core.Design, tmaxPs float64) (*montecarlo.Result, error) {
	return montecarlo.Run(d, montecarlo.Config{
		Samples: ctx.MCSamples, Seed: ctx.Seed,
		Sampling: ctx.Sampling, TmaxPs: tmaxPs,
	})
}

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// improvement is 1 − after/before as a percentage string.
func improvement(before, after float64) string { return pct(1 - after/before) }
