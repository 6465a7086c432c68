// Package yield computes the Monte Carlo timing yield of a design with
// a standard error, which importance sampling makes affordable at
// high-yield constraints.
package yield

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/ssta"
	"repro/internal/stats"
)

// Importance-sampled timing-yield estimation with confidence bounds.
// The Monte Carlo layer produces weighted samples; this layer turns
// them into an estimate with an error bar and drives the adaptive
// grow-until-converged loop the statistical optimizer's verification
// pass uses.

// ISEstimate is a timing-yield estimate with its confidence
// diagnostics. It applies to any Monte Carlo result — for an
// unweighted run the weights are implicitly 1 and the standard error
// reduces to the usual binomial one — so plain and importance-sampled
// estimates are directly comparable on StdErr.
type ISEstimate struct {
	Yield    float64 // estimated P(delay ≤ tmax)
	FailProb float64 // estimated P(delay > tmax) = 1 − Yield before clamping
	StdErr   float64 // standard error of FailProb (and of Yield)
	RelErr   float64 // StdErr / FailProb (+Inf when no failures were seen)
	ESS      float64 // effective sample size of the weights
	Samples  int     // raw sample count
}

// TimingIS estimates the timing yield P(delay ≤ tmax) from a Monte
// Carlo result with a standard error. The failure probability is
// estimated on the failure side — p̂f = (1/N)·Σ wᵢ·1{delayᵢ > tmax} —
// which is the unbiased importance-sampling form and, for unweighted
// runs, the plain sample fraction; StdErr is the sample standard error
// of the wᵢ·1{failᵢ} terms.
func TimingIS(res *montecarlo.Result, tmax float64) (ISEstimate, error) {
	n := len(res.DelaysPs)
	if n == 0 {
		return ISEstimate{}, fmt.Errorf("yield: malformed MC result (0 samples)")
	}
	if res.Weights != nil && len(res.Weights) != n {
		return ISEstimate{}, fmt.Errorf("yield: malformed MC result (%d samples, %d weights)",
			n, len(res.Weights))
	}
	// One pass for the mean of the wᵢ·fᵢ terms, one for their variance
	// (two-pass keeps the variance numerically clean for tiny pf).
	var sum float64
	terms := make([]float64, n)
	for i, d := range res.DelaysPs {
		if d > tmax {
			t := 1.0
			if res.Weights != nil {
				t = res.Weights[i]
			}
			terms[i] = t
			sum += t
		}
	}
	pf := sum / float64(n)
	var ss float64
	for _, t := range terms {
		dev := t - pf
		ss += dev * dev
	}
	se := 0.0
	if n > 1 {
		se = math.Sqrt(ss / float64(n-1) / float64(n))
	}
	rel := math.Inf(1)
	if pf > 0 {
		rel = se / pf
	}
	ess := float64(n)
	if res.Weights != nil {
		ess = stats.EffectiveSampleSize(res.Weights)
	}
	return ISEstimate{
		Yield:    clamp01(1 - pf),
		FailProb: pf,
		StdErr:   se,
		RelErr:   rel,
		ESS:      ess,
		Samples:  n,
	}, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ISBudget bounds the adaptive importance-sampling loop: start with
// Initial samples, double until the failure probability's relative
// standard error reaches RelErrTarget or the Max total is hit.
type ISBudget struct {
	Initial      int     // first batch size (default 200)
	Max          int     // total sample cap (default 20000)
	RelErrTarget float64 // stop when RelErr ≤ target (default 0.10)
}

func (b ISBudget) withDefaults() ISBudget {
	if b.Initial <= 0 {
		b.Initial = 200
	}
	if b.Max <= 0 {
		b.Max = 20000
	}
	if b.Max < b.Initial {
		b.Max = b.Initial
	}
	if b.RelErrTarget <= 0 {
		b.RelErrTarget = 0.10
	}
	return b
}

// AdaptiveTimingIS estimates the timing yield at cfg.TmaxPs (or
// tmax, which overrides it) by importance sampling with a growing
// sample budget: batches double until the estimate's relative standard
// error reaches budget.RelErrTarget or budget.Max samples have been
// spent. The proposal shift is resolved once (one SSTA pass) and
// shared by every batch; batch b draws its per-sample streams from a
// seed derived by mixing (cfg.Seed, b), so batches are mutually
// independent and the whole run is deterministic in cfg.Seed.
func AdaptiveTimingIS(ctx context.Context, d *core.Design, cfg montecarlo.Config, tmax float64, budget ISBudget) (ISEstimate, *montecarlo.Result, error) {
	if tmax <= 0 {
		tmax = cfg.TmaxPs
	}
	if tmax <= 0 {
		return ISEstimate{}, nil, fmt.Errorf("yield: AdaptiveTimingIS needs a timing constraint")
	}
	cfg.Sampling = montecarlo.ImportanceSampling
	cfg.TmaxPs = tmax
	if cfg.Shift == nil {
		sr, err := ssta.Analyze(d)
		if err != nil {
			return ISEstimate{}, nil, err
		}
		cfg.Shift = sr.ISShift(tmax)
	}
	budget = budget.withDefaults()

	total := &montecarlo.Result{}
	next := budget.Initial
	for batch := 0; ; batch++ {
		c := cfg
		c.Samples = next
		c.Seed = stats.StreamSeed(cfg.Seed, batch)
		res, err := montecarlo.RunCtx(ctx, d, c)
		if err != nil {
			return ISEstimate{}, nil, err
		}
		if err := total.Append(res); err != nil {
			return ISEstimate{}, nil, err
		}
		est, err := TimingIS(total, tmax)
		if err != nil {
			return ISEstimate{}, nil, err
		}
		have := len(total.DelaysPs)
		if est.RelErr <= budget.RelErrTarget || have >= budget.Max {
			return est, total, nil
		}
		next = have // double the total each round
		if have+next > budget.Max {
			next = budget.Max - have
		}
	}
}
