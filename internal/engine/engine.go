// Package engine provides the evaluation engine shared by every
// optimizer: it owns a *core.Design together with cached
// incremental-SSTA timing state, factored-Wilkinson leakage state, and
// a memoized deterministic corner analysis, and keeps all three
// consistent with the design. Apply is the only way to change the
// design an engine evaluates and Revert the only way to undo a change;
// scoring never changes it.
//
// The design decisions, in brief:
//
//   - Timing is maintained by ssta.Incremental — only the fanout cone
//     of a moved gate is re-timed — with a periodic full refresh
//     (Config.RefreshEvery) bounding floating-point drift over long
//     move sequences.
//   - The leakage percentile is maintained by leakage.Accumulator in
//     O(k²) per move; the exact pairwise sum stays in package leakage
//     for final scoreboards.
//   - Both caches are built lazily: a purely corner-based consumer
//     (the deterministic optimizer) never pays for SSTA state.
//   - Scoring never leaves a trace. Local scoring (ScoreAllLocalCtx)
//     is read-only: it evaluates the moved gate from the library and
//     asks the accumulator what its quantile would be. Exact scoring
//     (ScoreAll) applies and reverts each move serially on a scratch
//     clone of the design and both caches.
package engine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/stats"
)

// Hot-path instrumentation (see internal/obs): one atomic add per
// move; exported at GET /metrics by statleakd.
var (
	metApplied = obs.Default.Counter("statleak_engine_moves_applied_total",
		"moves applied through the engine (Apply)")
	metReverted = obs.Default.Counter("statleak_engine_moves_reverted_total",
		"moves undone through the engine (Revert)")
	metScored = obs.Default.Counter("statleak_engine_moves_scored_total",
		"speculative move evaluations (ScoreAll/ScoreAllLocalCtx)")
	metRefreshes = obs.Default.Histogram("statleak_engine_cache_refresh_seconds",
		"latency of full timing+leakage cache rebuilds (periodic drift refresh)", nil)
)

// Config fixes the evaluation parameters of an engine.
type Config struct {
	// TmaxPs is the delay constraint [ps] yield and slack are measured
	// against.
	TmaxPs float64
	// YieldTarget η is the timing-yield target (0 ⇒ 0.99); it sets the
	// quantile used by slack and margin queries.
	YieldTarget float64
	// LeakPercentile is the leakage objective percentile (0 ⇒ 0.99).
	LeakPercentile float64
	// CornerSigma is the deterministic corner used by Corner queries
	// (0 ⇒ nominal STA).
	CornerSigma float64
	// RefreshEvery rebuilds the incremental timing and leakage caches
	// from scratch after this many applied moves, bounding drift
	// (0 ⇒ 512; negative ⇒ never).
	RefreshEvery int
}

func (c *Config) setDefaults() {
	if stats.EqZero(c.YieldTarget) {
		c.YieldTarget = 0.99
	}
	if stats.EqZero(c.LeakPercentile) {
		c.LeakPercentile = 0.99
	}
	if c.RefreshEvery == 0 {
		c.RefreshEvery = 512
	}
}

func (c Config) validate() error {
	switch {
	case c.TmaxPs <= 0:
		return fmt.Errorf("engine: TmaxPs %g must be > 0", c.TmaxPs)
	case c.YieldTarget <= 0 || c.YieldTarget >= 1:
		return fmt.Errorf("engine: YieldTarget %g outside (0,1)", c.YieldTarget)
	case c.LeakPercentile <= 0 || c.LeakPercentile >= 1:
		return fmt.Errorf("engine: LeakPercentile %g outside (0,1)", c.LeakPercentile)
	case c.CornerSigma < 0 || c.CornerSigma > 6:
		return fmt.Errorf("engine: CornerSigma %g outside [0,6]", c.CornerSigma)
	}
	return nil
}

// Engine owns a design plus the cached analysis state the optimizers
// iterate against. It is not safe for concurrent use.
type Engine struct {
	d   *core.Design
	cfg Config

	dLc, dVc float64 // corner excursion for Config.CornerSigma

	inc *ssta.Incremental    // lazy: statistical timing
	acc *leakage.Accumulator // lazy: factored leakage

	corner     *sta.Result // memoized corner STA for cornerTmax
	cornerTmax float64

	sinceRefresh int
}

// New wraps a design. The engine does not copy d: moves applied
// through the engine mutate it in place, which is the contract every
// optimizer wants (the caller keeps the optimized assignment).
func New(d *core.Design, cfg Config) (*Engine, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{d: d, cfg: cfg}
	e.dLc, e.dVc = sta.CornerOffsets(d, cfg.CornerSigma)
	return e, nil
}

// Design returns the underlying design. Mutating it directly bypasses
// the caches; use Apply/Revert.
func (e *Engine) Design() *core.Design { return e.d }

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// CornerOffsets returns the (ΔLeff [nm], ΔVth [V]) excursion of the
// configured corner.
func (e *Engine) CornerOffsets() (dLnm, dVthV float64) { return e.dLc, e.dVc }

func (e *Engine) ensureAcc() error {
	if e.acc != nil {
		return nil
	}
	acc, err := leakage.NewAccumulator(e.d)
	if err != nil {
		return err
	}
	e.acc = acc
	return nil
}

func (e *Engine) ensureTiming() error {
	if e.inc != nil {
		return nil
	}
	inc, err := ssta.NewIncremental(e.d)
	if err != nil {
		return err
	}
	e.inc = inc
	return nil
}

// Apply performs a move and updates every live cache incrementally.
func (e *Engine) Apply(m Move) error {
	if err := m.Apply(e.d); err != nil {
		return err
	}
	metApplied.Inc()
	return e.noteChange(m.Gate())
}

// Revert undoes a move and updates every live cache incrementally.
func (e *Engine) Revert(m Move) error {
	if err := m.Revert(e.d); err != nil {
		return err
	}
	metReverted.Inc()
	return e.noteChange(m.Gate())
}

// noteChange refreshes the caches after gate id changed, triggering
// the periodic full rebuild when the drift budget is spent.
func (e *Engine) noteChange(id int) error {
	e.corner = nil
	if e.acc != nil {
		e.acc.Update(id)
	}
	if e.inc != nil {
		e.inc.Update(id)
	}
	if e.inc != nil || e.acc != nil {
		e.sinceRefresh++
		if e.cfg.RefreshEvery > 0 && e.sinceRefresh >= e.cfg.RefreshEvery {
			return e.Refresh()
		}
	}
	return nil
}

// Refresh rebuilds every live cache from the design's current state,
// discarding accumulated floating-point drift. It is the one hook a
// caller who mutated the design directly must use before the next
// query.
func (e *Engine) Refresh() error {
	t0 := time.Now()
	defer func() { metRefreshes.Observe(time.Since(t0).Seconds()) }()
	e.corner = nil
	e.sinceRefresh = 0
	if e.inc != nil {
		inc, err := ssta.NewIncremental(e.d)
		if err != nil {
			return err
		}
		e.inc = inc
	}
	if e.acc != nil {
		acc, err := leakage.NewAccumulator(e.d)
		if err != nil {
			return err
		}
		e.acc = acc
	}
	return nil
}

// Timing returns the current statistical timing view (read-only; it is
// refreshed in place by Apply/Revert).
func (e *Engine) Timing() (*ssta.Result, error) {
	if err := e.ensureTiming(); err != nil {
		return nil, err
	}
	return e.inc.Result(), nil
}

// Yield returns the SSTA timing yield at the configured Tmax.
func (e *Engine) Yield() (float64, error) {
	t, err := e.Timing()
	if err != nil {
		return 0, err
	}
	return t.Yield(e.cfg.TmaxPs), nil
}

// DelayQuantile returns the eta-quantile of the circuit delay [ps].
func (e *Engine) DelayQuantile(eta float64) (float64, error) {
	t, err := e.Timing()
	if err != nil {
		return 0, err
	}
	return t.Quantile(eta), nil
}

// StatisticalSlack returns the per-node statistical slack against the
// configured Tmax and yield target.
func (e *Engine) StatisticalSlack() ([]float64, error) {
	t, err := e.Timing()
	if err != nil {
		return nil, err
	}
	return t.StatisticalSlack(e.d, e.cfg.TmaxPs, e.cfg.YieldTarget)
}

// Criticality returns per-node criticality probabilities from the
// current timing view.
func (e *Engine) Criticality() ([]float64, error) {
	t, err := e.Timing()
	if err != nil {
		return nil, err
	}
	return t.Criticality(e.d)
}

// LeakAnalysis returns the factored moment-matched leakage view.
func (e *Engine) LeakAnalysis() (*leakage.Analysis, error) {
	if err := e.ensureAcc(); err != nil {
		return nil, err
	}
	return e.acc.Analysis()
}

// LeakQuantile returns the p-quantile of total leakage [nW] from the
// factored accumulator.
func (e *Engine) LeakQuantile(p float64) (float64, error) {
	if err := e.ensureAcc(); err != nil {
		return 0, err
	}
	q := e.acc.Quantile(p)
	if math.IsNaN(q) {
		return 0, fmt.Errorf("engine: leakage moment matching failed")
	}
	return q, nil
}

// LeakMean returns the mean total leakage [nW].
func (e *Engine) LeakMean() (float64, error) {
	if err := e.ensureAcc(); err != nil {
		return 0, err
	}
	return e.acc.Mean(), nil
}

// TotalLeak returns the design's nominal total leakage [nW] (no cache
// involved; a convenience for objective tracking).
func (e *Engine) TotalLeak() float64 { return e.d.TotalLeak() }

// Corner returns the memoized deterministic corner STA against tmaxPs.
// The result is invalidated by any Apply/Revert and recomputed on
// demand, so back-to-back queries between moves are free.
func (e *Engine) Corner(tmaxPs float64) (*sta.Result, error) {
	if e.corner != nil && stats.EqExact(e.cornerTmax, tmaxPs) {
		return e.corner, nil
	}
	r, err := e.cornerSTA(tmaxPs)
	if err != nil {
		return nil, err
	}
	e.corner, e.cornerTmax = r, tmaxPs
	return r, nil
}

// cornerSTA runs deterministic STA against tmaxPs with every gate's
// delay evaluated afresh at the engine's corner.
func (e *Engine) cornerSTA(tmaxPs float64) (*sta.Result, error) {
	delays := make([]float64, e.d.Circuit.NumNodes())
	for _, g := range e.d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		if stats.EqZero(e.dLc) && stats.EqZero(e.dVc) {
			delays[g.ID] = e.d.GateDelay(g.ID)
		} else {
			delays[g.ID] = e.d.GateDelayWith(g.ID, e.dLc, e.dVc)
		}
	}
	return sta.AnalyzeDelays(e.d.Circuit, delays, tmaxPs, e.d.Lib.P.DffSetupPs)
}
