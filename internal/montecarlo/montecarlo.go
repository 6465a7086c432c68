// Package montecarlo is the golden-reference evaluator: it samples the
// variation model directly (shared globals + per-gate private terms),
// re-evaluates the exact nonlinear delay and exponential leakage
// models per sample, and runs a deterministic STA max per die. SSTA
// and the lognormal leakage fit are validated against it (experiment
// T4), and final optimizer results are scored with it (T3).
//
// Three sampling schemes share the evaluation loop: plain i.i.d.
// sampling, Latin Hypercube stratification of the shared globals, and
// importance sampling for timing-yield estimation (ISLE-style: the
// globals are drawn from a mean-shifted proposal centered on the
// dominant failure direction extracted from SSTA path sensitivities,
// and every sample carries the likelihood ratio p/q as a weight).
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/tech"
)

// Instrumentation: sample volume and throughput (see internal/obs).
// The counter/histogram pair gives scrapers a rate; the gauge is the
// last completed run's samples/sec for at-a-glance dashboards. The IS
// pair tracks proposal quality: a collapsing effective sample size or
// a fat weight-variance tail means the shift overshoots the failure
// region and the estimator is coasting on a few dominant weights.
var (
	metSamples = obs.Default.Counter("statleak_mc_samples_total",
		"Monte Carlo die samples evaluated")
	metRuns = obs.Default.Counter("statleak_mc_runs_total",
		"Monte Carlo runs completed")
	metRunSeconds = obs.Default.Histogram("statleak_mc_run_seconds",
		"wall-clock latency of completed Monte Carlo runs", nil)
	metThroughput = obs.Default.Gauge("statleak_mc_samples_per_second",
		"throughput of the last completed Monte Carlo run")
	metISESS = obs.Default.Gauge("statleak_mc_is_ess",
		"effective sample size of the last importance-sampled run")
	metISWeightVar = obs.Default.Histogram("statleak_mc_is_weight_variance",
		"variance of the likelihood-ratio weights per importance-sampled run",
		[]float64{0.01, 0.1, 0.5, 1, 2, 5, 10, 50, 100})
)

// Sampling selects the sampling scheme for the shared variation
// globals.
type Sampling uint8

const (
	// PlainSampling draws i.i.d. standard normals (the default).
	PlainSampling Sampling = iota
	// LatinHypercube stratifies each global dimension into one stratum
	// per sample (variance reduction on the D2D/spatially-correlated
	// components, which dominate the mean estimates). Per-gate private
	// terms remain i.i.d. — their dimension is too high to stratify,
	// and they average out within a die anyway.
	LatinHypercube
	// ImportanceSampling draws the globals from a mean-shifted (and
	// optionally defensive-mixture) proposal centered on the dominant
	// timing-failure direction, and records per-sample likelihood-ratio
	// weights in Result.Weights. The weighted estimators reach a given
	// confidence on tail yields with orders of magnitude fewer samples
	// than plain sampling; use Config.TmaxPs (or an explicit
	// Config.Shift) to aim the proposal.
	ImportanceSampling
)

// ParseSampling maps a CLI flag / request token to a Sampling mode:
// "" or "plain" → PlainSampling, "lhs" → LatinHypercube, "is" →
// ImportanceSampling.
func ParseSampling(s string) (Sampling, error) {
	switch s {
	case "", "plain":
		return PlainSampling, nil
	case "lhs":
		return LatinHypercube, nil
	case "is":
		return ImportanceSampling, nil
	}
	return PlainSampling, fmt.Errorf("montecarlo: unknown sampling %q (want plain, lhs, or is)", s)
}

// String returns the token ParseSampling accepts for the mode.
func (s Sampling) String() string {
	switch s {
	case LatinHypercube:
		return "lhs"
	case ImportanceSampling:
		return "is"
	}
	return "plain"
}

// Config controls a Monte Carlo run.
type Config struct {
	Samples int
	Seed    int64
	// Workers is the number of goroutines, the caller's included, that
	// evaluate dies (0 ⇒ runtime.NumCPU()).
	Workers  int
	Sampling Sampling

	// TmaxPs is the timing constraint the importance-sampling proposal
	// targets. Used only by ImportanceSampling when Shift is nil: the
	// shift is then derived from a fresh SSTA pass (the most probable
	// failure point of the circuit-delay form, ssta.Result.ISShift).
	TmaxPs float64
	// Shift, when non-nil, is the explicit proposal mean in globals
	// space (length d.Var.NumPC); it overrides the SSTA derivation. A
	// zero vector degenerates to PlainSampling with all weights 1.
	Shift []float64
	// MixtureLambda λ ∈ [0,1) blends the nominal density into the
	// proposal: q = λ·p + (1−λ)·N(shift, I). A small λ (e.g. 0.05)
	// bounds every weight by 1/λ, defending the estimator against the
	// rare nominal-region sample that a pure shifted proposal would
	// weight enormously. 0 ⇒ pure shifted proposal.
	MixtureLambda float64
}

// Result holds per-sample circuit metrics. Samples are index-aligned:
// sample i used the same die (same parameter draw) for both metrics.
type Result struct {
	DelaysPs []float64 // circuit delay per sample [ps]
	LeaksNW  []float64 // total leakage per sample [nW]
	// Weights holds the per-sample likelihood ratios p(die)/q(die) of
	// an importance-sampled run (nil for unweighted runs). Weighted
	// estimators fold them in automatically.
	Weights []float64
}

// check validates the sample set before estimation: the empty and
// length-mismatched cases error rather than masquerade as a true zero
// estimate.
func (r *Result) check() error {
	n := len(r.DelaysPs)
	if n == 0 || n != len(r.LeaksNW) {
		return fmt.Errorf("montecarlo: malformed result (%d delay, %d leak samples)",
			n, len(r.LeaksNW))
	}
	if r.Weights != nil && len(r.Weights) != n {
		return fmt.Errorf("montecarlo: malformed result (%d samples, %d weights)",
			n, len(r.Weights))
	}
	return nil
}

// TimingYield returns the estimated timing yield P(delay ≤ tmax): the
// fraction of samples meeting tmax, or for a weighted (importance-
// sampled) run the unbiased estimator 1 − (1/N)·Σ wᵢ·1{delayᵢ > tmax},
// clamped to [0,1]. An empty or malformed sample set errors — a zero
// estimate and no data are different answers.
func (r *Result) TimingYield(tmax float64) (float64, error) {
	if err := r.check(); err != nil {
		return 0, err
	}
	if r.Weights == nil {
		ok := 0
		for _, d := range r.DelaysPs {
			if d <= tmax {
				ok++
			}
		}
		return float64(ok) / float64(len(r.DelaysPs)), nil
	}
	fail := 0.0
	for i, d := range r.DelaysPs {
		if d > tmax {
			fail += r.Weights[i]
		}
	}
	y := 1 - fail/float64(len(r.DelaysPs))
	if y < 0 {
		y = 0
	}
	if y > 1 {
		y = 1
	}
	return y, nil
}

// DelaySummary summarizes the raw delay samples. Under importance
// sampling the raw samples follow the proposal, not the nominal
// distribution — use the weight-aware quantile/mean accessors for
// nominal-distribution estimates.
func (r *Result) DelaySummary() stats.Summary { return stats.Summarize(r.DelaysPs) }

// LeakSummary summarizes the raw leakage samples (see DelaySummary for
// the importance-sampling caveat).
func (r *Result) LeakSummary() stats.Summary { return stats.Summarize(r.LeaksNW) }

// LeakQuantile returns the p-quantile of total leakage under the
// nominal distribution (weight-aware for importance-sampled runs).
func (r *Result) LeakQuantile(p float64) float64 {
	if r.Weights != nil {
		return stats.WeightedQuantile(r.LeaksNW, r.Weights, p)
	}
	return stats.Percentile(r.LeaksNW, p)
}

// DelayQuantile returns the p-quantile of circuit delay under the
// nominal distribution (weight-aware for importance-sampled runs).
func (r *Result) DelayQuantile(p float64) float64 {
	if r.Weights != nil {
		return stats.WeightedQuantile(r.DelaysPs, r.Weights, p)
	}
	return stats.Percentile(r.DelaysPs, p)
}

// DelayMean returns the (weight-aware) mean circuit delay.
func (r *Result) DelayMean() float64 {
	if r.Weights != nil {
		return stats.WeightedMean(r.DelaysPs, r.Weights)
	}
	return stats.Mean(r.DelaysPs)
}

// LeakMean returns the (weight-aware) mean total leakage.
func (r *Result) LeakMean() float64 {
	if r.Weights != nil {
		return stats.WeightedMean(r.LeaksNW, r.Weights)
	}
	return stats.Mean(r.LeaksNW)
}

// ESS returns Kish's effective sample size of the weights — the
// i.i.d.-equivalent sample count of the weighted estimators. Equals
// len(samples) for unweighted runs.
func (r *Result) ESS() float64 {
	if r.Weights == nil {
		return float64(len(r.DelaysPs))
	}
	return stats.EffectiveSampleSize(r.Weights)
}

// WeightVariance returns the sample variance of the likelihood-ratio
// weights (0 for unweighted runs) — the proposal-quality signal behind
// statleak_mc_is_weight_variance.
func (r *Result) WeightVariance() float64 {
	if r.Weights == nil {
		return 0
	}
	return stats.Variance(r.Weights)
}

// Append concatenates another run's samples onto r (the adaptive
// importance-sampling loop grows its sample set batch by batch). Both
// results must agree on weightedness.
func (r *Result) Append(o *Result) error {
	if err := o.check(); err != nil {
		return err
	}
	if (r.Weights == nil) != (o.Weights == nil) && len(r.DelaysPs) > 0 {
		return fmt.Errorf("montecarlo: Append mixing weighted and unweighted results")
	}
	r.DelaysPs = append(r.DelaysPs, o.DelaysPs...)
	r.LeaksNW = append(r.LeaksNW, o.LeaksNW...)
	if o.Weights != nil {
		r.Weights = append(r.Weights, o.Weights...)
	}
	return nil
}

// isProposal is the resolved importance-sampling proposal: a mean
// shift in globals space plus an optional defensive nominal mixture.
type isProposal struct {
	shift  []float64
	norm2  float64 // |shift|²
	lambda float64
}

// perturb moves a nominal globals draw z to the proposal distribution
// (in place) and returns the likelihood-ratio weight p(z')/q(z').
func (p *isProposal) perturb(z []float64, rng *rand.Rand) float64 {
	fromNominal := false
	if p.lambda > 0 {
		// The component choice costs one uniform per sample; it is part
		// of the sample's own stream, so weights stay deterministic
		// across worker counts.
		fromNominal = rng.Float64() < p.lambda
	}
	if !fromNominal {
		for k, s := range p.shift {
			z[k] += s
		}
	}
	// a = log φ(z−shift) − log φ(z) = shift·z − |shift|²/2, so
	// w = φ(z)/(λ·φ(z) + (1−λ)·φ(z−shift)) = 1/(λ + (1−λ)·eᵃ).
	// eᵃ overflowing to +Inf yields w = 0, the correct limit; for λ > 0
	// every weight is bounded by 1/λ.
	a := -p.norm2 / 2
	for k, s := range p.shift {
		a += s * z[k]
	}
	return 1 / (p.lambda + (1-p.lambda)*math.Exp(a))
}

// resolveProposal builds the IS proposal for a run: the explicit
// Config.Shift when given, otherwise the SSTA failure-direction shift
// for Config.TmaxPs. A zero shift returns nil — the run degenerates to
// plain sampling (weights all 1).
func resolveProposal(d *core.Design, cfg Config) (*isProposal, error) {
	if cfg.MixtureLambda < 0 || cfg.MixtureLambda >= 1 {
		return nil, fmt.Errorf("montecarlo: MixtureLambda %g outside [0,1)", cfg.MixtureLambda)
	}
	shift := cfg.Shift
	if shift == nil {
		if cfg.TmaxPs <= 0 {
			return nil, fmt.Errorf("montecarlo: ImportanceSampling needs TmaxPs > 0 or an explicit Shift")
		}
		sr, err := ssta.Analyze(d)
		if err != nil {
			return nil, err
		}
		shift = sr.ISShift(cfg.TmaxPs)
	}
	if len(shift) != d.Var.NumPC {
		return nil, fmt.Errorf("montecarlo: Shift dimension %d, want NumPC %d",
			len(shift), d.Var.NumPC)
	}
	norm2 := 0.0
	for _, v := range shift {
		norm2 += v * v
	}
	if norm2 <= 0 {
		return nil, nil // degenerate: exactly PlainSampling, weights 1
	}
	// Copy: the proposal is shared read-only across workers.
	return &isProposal{
		shift:  append([]float64(nil), shift...),
		norm2:  norm2,
		lambda: cfg.MixtureLambda,
	}, nil
}

// Run executes the Monte Carlo. Results are deterministic for a given
// (design, Config.Samples, Config.Seed) regardless of Workers: each
// sample derives its RNG stream from Seed and its own index.
func Run(d *core.Design, cfg Config) (*Result, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use RunCtx
	return RunCtx(context.Background(), d, cfg)
}

// RunCtx is Run with cancellation: workers stop drawing new samples as
// soon as ctx is cancelled and the partial result is discarded
// (ctx.Err() is returned), so a cancelled job never publishes a
// truncated — and therefore non-replayable — sample set.
func RunCtx(ctx context.Context, d *core.Design, cfg Config) (*Result, error) {
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("montecarlo: Samples %d must be > 0", cfg.Samples)
	}
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > cfg.Samples {
		workers = cfg.Samples
	}

	// Bind every gate's cell and grid cell once per run: the
	// assignment and loads do not change during a run, so a die
	// evaluates only what its excursions change. gates lists the logic
	// gates in ID order, the order their private draws are taken in.
	n := d.Circuit.NumNodes()
	type gateCtx struct {
		id   int
		cell tech.Cell
		grid int // grid cell (variation.Model.CellOf)
	}
	var gates []gateCtx
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		gates = append(gates, gateCtx{
			id:   g.ID,
			cell: d.Lib.Cell(g.Type, d.Vth[g.ID], d.Size[g.ID], d.Load(g.ID)),
			grid: d.Var.CellOf(g.X, g.Y),
		})
	}

	// Pre-draw the shared globals when stratifying; the per-sample RNG
	// stream stays identical either way (the globals draws are simply
	// replaced), so Plain and LHS runs are comparable die-for-die in
	// their private components.
	var lhs [][]float64
	if cfg.Sampling == LatinHypercube {
		lhs = latinHypercube(cfg.Samples, d.Var.NumPC, cfg.Seed)
	}

	// Resolve the importance-sampling proposal up front; a zero shift
	// keeps prop nil, making the run bit-identical to PlainSampling
	// except for the all-ones weight vector.
	var prop *isProposal
	res := &Result{
		DelaysPs: make([]float64, cfg.Samples),
		LeaksNW:  make([]float64, cfg.Samples),
	}
	if cfg.Sampling == ImportanceSampling {
		if prop, err = resolveProposal(d, cfg); err != nil {
			return nil, err
		}
		res.Weights = make([]float64, cfg.Samples)
		for i := range res.Weights {
			res.Weights[i] = 1
		}
	}

	// The die pool: the calling goroutine and workers−1 more claim die
	// indices from a shared counter until the dies run out or ctx is
	// cancelled. Results stay deterministic for a given (Samples, Seed)
	// regardless of worker count or scheduling, because every die
	// derives its whole RNG stream from its own index and writes only
	// its own result slots. Each worker owns one RNG and re-seeds it per
	// die: stats.Source draws math/rand's stream, and its Seed rebuilds
	// exactly the state rand.NewSource builds, so the stream is that of
	// a fresh source without its allocation or its serial seeding.
	t0 := time.Now()
	var next atomic.Int64
	var done atomic.Uint64
	work := func() {
		delays := make([]float64, n) // inputs stay 0
		scratch := make([]float64, n)
		globals := make([]float64, d.Var.NumPC)
		ex := make([]float64, d.Var.NumCells())
		rng := rand.New(stats.NewSource(cfg.Seed))
		vm := d.Var
		evaluated := uint64(0)
		defer func() { done.Add(evaluated) }()
		for ctx.Err() == nil {
			s := int(next.Add(1) - 1)
			if s >= cfg.Samples {
				return
			}
			rng.Seed(stats.StreamSeed(cfg.Seed, s))
			vm.SampleGlobals(rng, globals)
			z := globals
			if lhs != nil {
				z = lhs[s]
			}
			if prop != nil {
				res.Weights[s] = prop.perturb(z, rng)
			}
			// A gate's ΔL is its grid cell's global excursion plus its
			// private term: the excursion is computed once per cell.
			vm.Excursions(z, ex)
			leak := 0.0
			for i := range gates {
				g := &gates[i]
				dL := vm.DeltaL(ex[g.grid], rng.NormFloat64())
				dV := vm.DeltaVth(rng.NormFloat64())
				delays[g.id] = g.cell.Delay(dL, dV)
				leak += g.cell.Leak(dL, dV)
			}
			res.DelaysPs[s] = sta.MaxDelayWithDelays(d.Circuit, order, delays, scratch, d.Lib.P.DffSetupPs)
			res.LeaksNW[s] = leak
			evaluated++
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	metSamples.Add(done.Load())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	elapsed := time.Since(t0).Seconds()
	metRuns.Inc()
	metRunSeconds.Observe(elapsed)
	if elapsed > 0 {
		metThroughput.Set(float64(cfg.Samples) / elapsed)
	}
	if res.Weights != nil {
		metISESS.Set(res.ESS())
		metISWeightVar.Observe(res.WeightVariance())
	}
	return res, nil
}

// latinHypercube draws n stratified standard-normal vectors of
// dimension k: each dimension is cut into n equal-probability strata,
// each stratum used exactly once (in a seeded random order), and the
// point placed uniformly within its stratum before mapping through
// the normal quantile.
func latinHypercube(n, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, k)
	}
	perm := make([]int, n)
	for dim := 0; dim < k; dim++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			out[i][dim] = stats.NormalQuantile(u)
		}
	}
	return out
}
