// Package abb implements adaptive body bias (ABB), the post-silicon
// compensation technique contemporary with the paper (Tschanz et al.,
// JSSC 2002): after fabrication, each die's systematic process corner
// is observable, and a single body-bias voltage applied to the whole
// die shifts every threshold by ΔVth = γ·Vbb — reverse bias (Vbb > 0
// here) to de-leak fast dies, forward bias (Vbb < 0) to rescue slow
// ones. ABB tightens the frequency distribution and collapses the
// leakage spread, and composes with the design-time statistical
// optimizer: optimize the assignment statically, then bias each die.
//
// The implementation samples dies exactly like package montecarlo
// (shared globals + per-gate private terms) and, per die, picks the
// most reverse bias that still meets the delay constraint.
package abb

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/tech"
)

// Config sets the body-bias knob.
type Config struct {
	// GammaBB is the body-effect coefficient dVth/dVbb [V/V].
	GammaBB float64
	// MaxForwardV and MaxReverseV bound the bias range [V]; forward
	// bias is applied as negative Vbb. Junction leakage limits forward
	// bias to a few hundred mV in practice.
	MaxForwardV float64
	MaxReverseV float64
	// Steps is the bias search resolution (binary search iterations).
	Steps int
}

// DefaultConfig returns era-typical ABB parameters: 100 mV/V body
// effect, ±500 mV bias range.
func DefaultConfig() Config {
	return Config{GammaBB: 0.1, MaxForwardV: 0.5, MaxReverseV: 0.5, Steps: 20}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.GammaBB <= 0:
		return fmt.Errorf("abb: GammaBB %g must be > 0", c.GammaBB)
	case c.MaxForwardV < 0 || c.MaxReverseV < 0:
		return fmt.Errorf("abb: bias bounds must be non-negative")
	case c.Steps < 4:
		return fmt.Errorf("abb: Steps %d too small", c.Steps)
	}
	return nil
}

// DieResult is one die's outcome with and without biasing.
type DieResult struct {
	BiasV float64 // chosen Vbb (positive = reverse bias)

	DelayNoBias float64
	LeakNoBias  float64
	DelayBiased float64
	LeakBiased  float64
	Met         bool // delay constraint met after biasing
}

// Result aggregates an ABB Monte Carlo run.
type Result struct {
	Dies []DieResult
}

// YieldNoBias returns the fraction of dies meeting tmax without ABB.
// An empty result (a run that failed before any die finished) yields
// 0, not NaN, so the aggregate stays finite on the error path.
func (r *Result) YieldNoBias(tmax float64) float64 {
	if len(r.Dies) == 0 {
		return 0
	}
	n := 0
	for _, d := range r.Dies {
		if d.DelayNoBias <= tmax {
			n++
		}
	}
	return float64(n) / float64(len(r.Dies))
}

// YieldBiased returns the fraction of dies meeting tmax with their
// chosen bias (0 for an empty result, as with YieldNoBias).
func (r *Result) YieldBiased() float64 {
	if len(r.Dies) == 0 {
		return 0
	}
	n := 0
	for _, d := range r.Dies {
		if d.Met {
			n++
		}
	}
	return float64(n) / float64(len(r.Dies))
}

// LeakSummaries returns sample summaries of the unbiased and biased
// leakage across dies (zero summaries for an empty result).
func (r *Result) LeakSummaries() (noBias, biased stats.Summary) {
	if len(r.Dies) == 0 {
		return stats.Summary{}, stats.Summary{}
	}
	a := make([]float64, len(r.Dies))
	b := make([]float64, len(r.Dies))
	for i, d := range r.Dies {
		a[i] = d.LeakNoBias
		b[i] = d.LeakBiased
	}
	return stats.Summarize(a), stats.Summarize(b)
}

// die is one sampled process realization, frozen so that repeated
// evaluations at different biases see identical silicon.
type die struct {
	dL    []float64   // per-node ΔLeff [nm]
	dV    []float64   // per-node independent ΔVth [V]
	ids   []int       // logic-gate node IDs
	cells []tech.Cell // per-node cell bound once per run
}

// evalDie computes circuit delay and total leakage for a frozen die
// under a uniform body-bias threshold shift. It fails on a non-finite
// result: the exponential leakage and alpha-power delay models can
// blow up at extreme bias excursions, and letting a NaN/Inf flow into
// the bisection would silently corrupt the bias choice instead of
// surfacing the broken operating point.
func evalDie(d *core.Design, order []int, s *die, biasVth float64,
	delays, scratch []float64) (delay, leak float64, err error) {
	leak = 0
	for _, id := range s.ids {
		c := &s.cells[id]
		dv := s.dV[id] + biasVth
		delays[id] = c.Delay(s.dL[id], dv)
		leak += c.Leak(s.dL[id], dv)
	}
	delay = sta.MaxDelayWithDelays(d.Circuit, order, delays, scratch, d.Lib.P.DffSetupPs)
	if math.IsNaN(delay) || math.IsInf(delay, 0) || math.IsNaN(leak) || math.IsInf(leak, 0) {
		return 0, 0, fmt.Errorf("non-finite die evaluation (delay=%g ps, leak=%g nW) at bias ΔVth=%g V", delay, leak, biasVth)
	}
	return delay, leak, nil
}

// Run samples dies, picks each die's bias, and reports the aggregate.
// Per die the policy is: find (by bisection, using delay's
// monotonicity in Vth) the most reverse bias that still meets tmax;
// if even maximum forward bias cannot close timing, apply it anyway
// and mark the die failed.
func Run(d *core.Design, cfg Config, tmax float64, samples int, seed int64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if samples <= 0 {
		return nil, fmt.Errorf("abb: samples %d must be > 0", samples)
	}
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Bind each gate's cell and grid cell once per run, compute each
	// grid cell's global ΔL excursion once per die, and re-seed one RNG
	// per die (the stream of a fresh math/rand source, without its
	// allocation or its serial seeding), as montecarlo.RunCtx does.
	n := d.Circuit.NumNodes()
	s := &die{dL: make([]float64, n), dV: make([]float64, n), cells: make([]tech.Cell, n)}
	grid := make([]int, n)
	vm := d.Var
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		s.ids = append(s.ids, g.ID)
		s.cells[g.ID] = d.Lib.Cell(g.Type, d.Vth[g.ID], d.Size[g.ID], d.Load(g.ID))
		grid[g.ID] = vm.CellOf(g.X, g.Y)
	}
	if len(s.ids) == 0 {
		return nil, fmt.Errorf("abb: circuit has no logic gates")
	}

	res := &Result{Dies: make([]DieResult, samples)}
	delays := make([]float64, n)
	scratch := make([]float64, n)
	globals := make([]float64, vm.NumPC)
	ex := make([]float64, vm.NumCells())
	rng := rand.New(stats.NewSource(seed))
	for k := 0; k < samples; k++ {
		rng.Seed(stats.StreamSeed(seed, k))
		vm.SampleGlobals(rng, globals)
		vm.Excursions(globals, ex)
		for _, id := range s.ids {
			s.dL[id] = vm.DeltaL(ex[grid[id]], rng.NormFloat64())
			s.dV[id] = vm.DeltaVth(rng.NormFloat64())
		}
		dr := &res.Dies[k]
		dr.DelayNoBias, dr.LeakNoBias, err = evalDie(d, order, s, 0, delays, scratch)
		if err != nil {
			return nil, fmt.Errorf("abb: die %d: %w", k, err)
		}

		// Delay grows monotonically with Vbb (reverse bias raises Vth),
		// so the most reverse feasible bias is found by bisection over
		// [−MaxForward, +MaxReverse].
		lo, hi := -cfg.MaxForwardV, cfg.MaxReverseV
		dHi, _, err := evalDie(d, order, s, cfg.GammaBB*hi, delays, scratch)
		if err != nil {
			return nil, fmt.Errorf("abb: die %d: %w", k, err)
		}
		if dHi <= tmax {
			dr.BiasV = hi
		} else {
			dLo, lLo, err := evalDie(d, order, s, cfg.GammaBB*lo, delays, scratch)
			if err != nil {
				return nil, fmt.Errorf("abb: die %d: %w", k, err)
			}
			if dLo > tmax {
				// Even max forward bias cannot close timing.
				dr.BiasV = lo
				dr.DelayBiased, dr.LeakBiased = dLo, lLo
				dr.Met = false
				continue
			}
			for i := 0; i < cfg.Steps; i++ {
				mid := (lo + hi) / 2
				dm, _, err := evalDie(d, order, s, cfg.GammaBB*mid, delays, scratch)
				if err != nil {
					return nil, fmt.Errorf("abb: die %d: %w", k, err)
				}
				if dm <= tmax {
					lo = mid
				} else {
					hi = mid
				}
			}
			dr.BiasV = lo
		}
		dr.DelayBiased, dr.LeakBiased, err = evalDie(d, order, s, cfg.GammaBB*dr.BiasV, delays, scratch)
		if err != nil {
			return nil, fmt.Errorf("abb: die %d: %w", k, err)
		}
		dr.Met = dr.DelayBiased <= tmax
	}
	return res, nil
}
