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
//     move sequences. The refresh re-times every row and re-sums the
//     leakage state in the caches' own buffers rather than building
//     new caches, so it allocates nothing. The timer's per-node memo
//     of loads and gate delays also serves the slack pass and the
//     candidate scan (Family.LoadDelay), and a Revert of the move the
//     last update applied (a rejected try) restores the rows that
//     update overwrote instead of re-timing.
//   - The leakage percentile is maintained by leakage.Accumulator in
//     O(k²) per move. The exact pairwise sum, which the margin sweep
//     and a run's end state read, runs over the accumulator's per-cell
//     exponent records and a cell-pair table it keeps.
//   - Both caches are built lazily: a purely corner-based consumer
//     (the deterministic optimizer) never pays for SSTA state.
//   - The deterministic corner analysis keeps its own per-node memo of
//     loads and corner delays, dropped for a moved gate and its fanins
//     as the timing cache's is, and re-runs the arrival, required and
//     slack passes over it into one engine-owned result.
//   - Scoring never leaves a trace. Local scoring (ScoreAllLocalCtx)
//     is read-only: it evaluates the moved gate's leakage from the
//     library and asks the accumulator what its quantile would be. Exact scoring
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
		"latency of full in-place timing+leakage cache refreshes (periodic drift refresh)", nil)
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
	// RefreshEvery re-times and re-sums the incremental timing and
	// leakage caches from scratch, in place, after this many cache
	// updates, bounding drift. Every Apply, every Revert and every
	// corner mirror of either counts one (0 ⇒ 512; negative ⇒ never).
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

	// Corner memo: per node the fanout load and the delay at the
	// configured corner, valid where cornerMemoOK (allocated on first
	// use; Refresh and noteChange drop entries). corner is the
	// analysis Corner last ran, valid for cornerTmax while cornerOK.
	cornerLoad, cornerDelay []float64
	cornerMemoOK            []bool
	corner                  sta.Result
	cornerOK                bool
	cornerTmax              float64

	// last is the move the most recent cache update applied (nil after
	// a revert). Reverting exactly that move lets the timing cache undo
	// its last update instead of re-timing the cone.
	last Move

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
	e.noteChange(m, false)
	return nil
}

// Revert undoes a move and updates every live cache incrementally.
// Reverting the move the last update applied restores the timing rows
// that update overwrote instead of re-timing its cone.
func (e *Engine) Revert(m Move) error {
	if err := m.Revert(e.d); err != nil {
		return err
	}
	metReverted.Inc()
	e.noteChange(m, true)
	return nil
}

// noteChange refreshes the caches after move m was applied (or, with
// revert, undone), triggering the periodic full refresh when the drift
// budget is spent. An undone m that the last update applied leaves
// gate m.Gate() as it was before that update and every other gate
// untouched since, so the timing cache may roll the update back.
func (e *Engine) noteChange(m Move, revert bool) {
	id := m.Gate()
	e.forgetCorner(id)
	if e.acc != nil {
		e.acc.Update(id)
	}
	if e.inc != nil && !(revert && m == e.last && e.inc.Undo(id)) {
		e.inc.Update(id)
	}
	e.last = m
	if revert {
		e.last = nil
	}
	if e.inc != nil || e.acc != nil {
		e.sinceRefresh++
		if e.cfg.RefreshEvery > 0 && e.sinceRefresh >= e.cfg.RefreshEvery {
			e.Refresh()
		}
	}
}

// Refresh re-times and re-sums every live cache from the design's
// current Vth/size assignment, in the caches' own buffers, discarding
// accumulated floating-point drift: the rows and sums it leaves are
// bitwise those of freshly built caches. A caller who changed the
// assignment directly (Design.CopyAssignmentFrom, as an optimizer
// restoring its incumbent does) must call it before the next query. It
// keeps what the caches derived from the rest of the design —
// topological order, timing endpoints, each gate's grid cell, the
// per-cell leakage exponent records and the exact analysis's cell-pair
// table — so any other change to the design (netlist, placement,
// variation model, library) needs a new engine. It allocates nothing.
func (e *Engine) Refresh() {
	t0 := time.Now()
	e.dropCorner()
	e.sinceRefresh = 0
	if e.inc != nil {
		e.inc.Reset()
	}
	if e.acc != nil {
		e.acc.Reset()
	}
	metRefreshes.Observe(time.Since(t0).Seconds())
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
// configured Tmax and yield target, written into dst (reallocated only
// when its capacity is short). The gate delays come from the timing
// cache's memo; the values are bitwise ssta.Result.StatisticalSlack's.
func (e *Engine) StatisticalSlack(dst []float64) ([]float64, error) {
	if err := e.ensureTiming(); err != nil {
		return nil, err
	}
	return e.inc.StatisticalSlack(e.cfg.TmaxPs, e.cfg.YieldTarget, dst), nil
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

// Corner returns the deterministic corner STA against tmaxPs. The
// result is engine-owned and refreshed in place: it stays valid until
// the next Apply, Revert or Refresh, or a Corner query at another
// tmaxPs — the contract Timing has. Back-to-back queries between moves
// are free; after a move only the moved gate's and its fanins' corner
// delays are re-evaluated before the passes re-run.
func (e *Engine) Corner(tmaxPs float64) (*sta.Result, error) {
	if e.cornerOK && stats.EqExact(e.cornerTmax, tmaxPs) {
		return &e.corner, nil
	}
	c := e.d.Circuit
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, g := range c.Gates() {
		if g.Type != logic.Input {
			e.cornerLoadDelay(g.ID)
		}
	}
	sta.AnalyzeInto(&e.corner, c, order, e.cornerDelay, tmaxPs, e.d.Lib.P.DffSetupPs)
	e.cornerOK, e.cornerTmax = true, tmaxPs
	return &e.corner, nil
}

// cornerLoadDelay returns gate id's fanout load [fF] and its delay [ps]
// at the engine's corner from the memo, filling the entry on a miss.
func (e *Engine) cornerLoadDelay(id int) (loadFF, delayPs float64) {
	if e.cornerMemoOK == nil {
		n := e.d.Circuit.NumNodes()
		e.cornerLoad, e.cornerDelay = make([]float64, n), make([]float64, n)
		e.cornerMemoOK = make([]bool, n)
	}
	if !e.cornerMemoOK[id] {
		load := e.d.Load(id)
		e.cornerLoad[id], e.cornerDelay[id] = load, cornerDelayAt(e.d, id, load, e.dLc, e.dVc)
		e.cornerMemoOK[id] = true
	}
	return e.cornerLoad[id], e.cornerDelay[id]
}

// cornerDelayAt is gate id's delay [ps] at the (ΔLeff, ΔVth) corner
// excursion and the given load: the nominal delay when the excursion
// is zero, the excursion model otherwise.
func cornerDelayAt(d *core.Design, id int, load, dLnm, dVthV float64) float64 {
	if stats.EqZero(dLnm) && stats.EqZero(dVthV) {
		return d.GateDelayAt(id, load)
	}
	return d.GateDelayWithAt(id, load, dLnm, dVthV)
}

// forgetCorner drops the corner analysis and the memo entries a change
// of gate id can perturb: its own delay and its fanins' loads and
// delays.
func (e *Engine) forgetCorner(id int) {
	e.cornerOK = false
	if e.cornerMemoOK == nil {
		return
	}
	e.cornerMemoOK[id] = false
	for _, f := range e.d.Circuit.Gate(id).Fanin {
		e.cornerMemoOK[f] = false
	}
}

// dropCorner drops the corner analysis and the whole memo.
func (e *Engine) dropCorner() {
	e.cornerOK = false
	clear(e.cornerMemoOK)
}
