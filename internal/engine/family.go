// Family: the corner-indexed evaluation context. One Family owns one
// Engine per scenario corner, all evaluating the SAME assignment
// arrays (corner views alias the base design's Vth/Size slices, see
// core.CornerView) against per-corner libraries and the spec's
// body-bias vector. A move committed through the Family is
// applied to the shared assignment exactly once — through the primary
// engine — and then *mirrored* into every other corner: each secondary
// engine folds the already-applied move into its incremental caches
// without re-running the design mutation, so no corner is re-cloned
// or fully re-evaluated per move.
//
// Aggregation semantics (what the search's verify/accept sees):
//
//   - timing yield:      min over corners   (a part must close timing
//     everywhere it ships)
//   - delay quantile:    max over corners
//   - statistical slack: elementwise min over corners
//   - leakage objective: worst corner (max) or the mean over corners,
//     per scenario.Spec.Weighted
//
// The 1×1 nominal spec degenerates to the single-engine evaluation
// bit-for-bit: the lone corner is the base design itself, every
// aggregate of one value is that value, and no mirroring happens.
package engine

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/scenario"
	"repro/internal/ssta"
	"repro/internal/sta"
)

// Family owns one evaluation engine per scenario corner over a single
// shared assignment. Like Engine it is not safe for concurrent use.
type Family struct {
	base     *core.Design
	weighted bool // leakage objective: mean over corners, not the worst
	engines  []*Engine
	names    []string
	per      []float64   // per-corner values a leakage query aggregates
	scores   [][]float64 // per-corner local scores, reused across ScoreAllLocalCtx calls
}

// NewFamily builds the per-corner engines for the spec (nil ⇒ the 1×1
// nominal corner). Corner 0 at the nominal operating point evaluates
// the base design directly, so a nominal spec adds no indirection to
// the values the engine computes.
func NewFamily(d *core.Design, cfg Config, s *scenario.Spec) (*Family, error) {
	rs, err := s.Resolve(d.Lib, d.Circuit)
	if err != nil {
		return nil, err
	}
	f := &Family{base: d, weighted: s.Weighted()}
	for i, r := range rs {
		cd := d
		if !(i == 0 && r.Nominal) {
			cd, err = d.CornerView(r.Lib, r.BiasVth)
			if err != nil {
				return nil, err
			}
		}
		e, err := New(cd, cfg)
		if err != nil {
			return nil, fmt.Errorf("engine: corner %q: %w", r.Name, err)
		}
		f.engines = append(f.engines, e)
		f.names = append(f.names, r.Name)
	}
	f.per = make([]float64, len(f.engines))
	f.scores = make([][]float64, len(f.engines))
	return f, nil
}

// mirror folds a move that was already applied to the shared
// assignment (through another corner's engine) into this engine's
// caches. The design mutation itself must not repeat — corner views
// alias one assignment, and Move.Apply's precondition check would
// reject the second application — so mirror skips it and reuses the
// incremental-update path Apply takes after mutating. Unexported on
// purpose: only the Family may call it, which is what keeps
// "per-corner contexts are mutated only through Family commit/replay"
// a compile-level invariant.
func (e *Engine) mirror(m Move, revert bool) {
	if revert {
		metReverted.Inc()
	} else {
		metApplied.Inc()
	}
	e.noteChange(m, revert)
}

// Apply performs a move on the shared assignment and updates every
// corner's caches incrementally. An error comes from the move's
// precondition check, before anything changed.
func (f *Family) Apply(m Move) error {
	if err := f.engines[0].Apply(m); err != nil {
		return err
	}
	for _, e := range f.engines[1:] {
		e.mirror(m, false)
	}
	return nil
}

// Revert undoes a move across every corner (see Apply).
func (f *Family) Revert(m Move) error {
	if err := f.engines[0].Revert(m); err != nil {
		return err
	}
	for _, e := range f.engines[1:] {
		e.mirror(m, true)
	}
	return nil
}

// Design returns the base design the family optimizes (the shared
// assignment).
func (f *Family) Design() *core.Design { return f.base }

// Refresh refreshes every corner's caches (Engine.Refresh). A caller
// who changed the shared assignment directly
// (Design.CopyAssignmentFrom) calls it before the next query.
func (f *Family) Refresh() {
	for _, e := range f.engines {
		e.Refresh()
	}
}

// CornerOffsets returns the primary corner's deterministic process-
// corner excursion.
func (f *Family) CornerOffsets() (dLnm, dVthV float64) { return f.engines[0].CornerOffsets() }

// LoadDelay returns the base design's fanout load [fF] and nominal
// delay [ps] of gate id, bitwise Design.Load and Design.GateDelay of
// the base design. They come from the primary corner's timing memo
// when that corner evaluates the base design itself, and are computed
// from the base design otherwise (under a scenario spec corner 0 may
// be a view with its own library). The primary corner's timing must be
// live, as StatisticalSlack leaves it.
func (f *Family) LoadDelay(id int) (loadFF, delayPs float64) {
	if e := f.engines[0]; e.d == f.base {
		return e.inc.LoadDelay(id)
	}
	load := f.base.Load(id)
	return load, f.base.GateDelayAt(id, load)
}

// CornerLoadDelay returns the base design's fanout load [fF] and its
// delay [ps] at the primary corner's process excursion: the nominal
// delay when the excursion is zero, the excursion model otherwise.
// Like LoadDelay, the values come from the primary corner's corner
// memo when that corner evaluates the base design itself, and are
// computed from the base design otherwise.
func (f *Family) CornerLoadDelay(id int) (loadFF, delayPs float64) {
	e := f.engines[0]
	if e.d == f.base {
		return e.cornerLoadDelay(id)
	}
	load := f.base.Load(id)
	return load, cornerDelayAt(f.base, id, load, e.dLc, e.dVc)
}

// Aggregate collapses per-corner objective values, index-aligned with
// the family's corners: the worst corner (max), or under a weighted
// spec the mean over corners. A single corner passes through untouched.
func (f *Family) Aggregate(per []float64) float64 {
	if len(per) == 1 {
		return per[0]
	}
	if f.weighted {
		w := 1 / float64(len(per))
		s := 0.0
		for _, v := range per {
			s += w * v
		}
		return s
	}
	worst := per[0]
	for _, v := range per[1:] {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// Yield returns the family timing yield: the minimum SSTA yield over
// corners (the circuit must close timing at every corner).
func (f *Family) Yield() (float64, error) {
	worst := 0.0
	for i, e := range f.engines {
		y, err := e.Yield()
		if err != nil {
			return 0, err
		}
		if i == 0 || y < worst {
			worst = y
		}
	}
	return worst, nil
}

// DelayQuantile returns the max over corners of the eta-quantile of
// circuit delay [ps] — the binding corner's value.
func (f *Family) DelayQuantile(eta float64) (float64, error) {
	worst := 0.0
	for i, e := range f.engines {
		q, err := e.DelayQuantile(eta)
		if err != nil {
			return 0, err
		}
		if i == 0 || q > worst {
			worst = q
		}
	}
	return worst, nil
}

// Timing returns the binding corner's statistical timing view: the
// corner with the largest delay quantile at the configured yield
// target (ties break to the lowest corner index).
func (f *Family) Timing() (*ssta.Result, error) {
	if len(f.engines) == 1 {
		return f.engines[0].Timing()
	}
	bind, worst := 0, 0.0
	for i, e := range f.engines {
		q, err := e.DelayQuantile(e.cfg.YieldTarget)
		if err != nil {
			return nil, err
		}
		if i == 0 || q > worst {
			bind, worst = i, q
		}
	}
	return f.engines[bind].Timing()
}

// StatisticalSlack returns the elementwise minimum over corners of the
// per-node statistical slack — the conservative budget a move may
// consume without violating any corner — written into dst as
// Engine.StatisticalSlack does.
func (f *Family) StatisticalSlack(dst []float64) ([]float64, error) {
	min, err := f.engines[0].StatisticalSlack(dst)
	if err != nil {
		return nil, err
	}
	for _, e := range f.engines[1:] {
		s, err := e.StatisticalSlack(nil)
		if err != nil {
			return nil, err
		}
		for i, v := range s {
			if v < min[i] {
				min[i] = v
			}
		}
	}
	return min, nil
}

// LeakQuantile returns the corner-aggregated p-quantile of total
// leakage [nW] from the factored accumulators.
func (f *Family) LeakQuantile(p float64) (float64, error) {
	for i, e := range f.engines {
		q, err := e.LeakQuantile(p)
		if err != nil {
			return 0, err
		}
		f.per[i] = q
	}
	return f.Aggregate(f.per), nil
}

// ExactLeakQuantile returns the corner-aggregated p-quantile from the
// exact leakage analysis — the sweep-selection objective — bitwise
// leakage.Exact's per corner. Each corner reads it through its
// leakage accumulator (built here if no query has built it yet), which
// keeps the cell-pair exponent table: the first call costs
// O(n² + cells²·k) and later calls the O(n²) pair loop alone, with no
// allocation.
func (f *Family) ExactLeakQuantile(p float64) (float64, error) {
	for i, e := range f.engines {
		if err := e.ensureAcc(); err != nil {
			return 0, err
		}
		q, err := e.acc.ExactQuantile(p)
		if err != nil {
			return 0, err
		}
		f.per[i] = q
	}
	return f.Aggregate(f.per), nil
}

// BaseAnalyses returns the base design's statistical timing view and
// its exact leakage analysis, read from the primary corner's caches
// (either is built here if no query has built it yet). Right after a
// Refresh, or on caches no move has touched, they are bitwise
// ssta.Analyze and leakage.Exact of the base design; incremental
// updates leave timing rows within their cut-off of a fresh analysis,
// not bitwise on it. ok is false, and nothing is read, when the primary
// corner is a view of the base design with its own library (the rule
// LoadDelay follows). The timing view is the engine's, valid as
// Engine.Timing's.
func (f *Family) BaseAnalyses() (timing *ssta.Result, leak *leakage.Analysis, ok bool, err error) {
	e := f.engines[0]
	if e.d != f.base {
		return nil, nil, false, nil
	}
	if timing, err = e.Timing(); err != nil {
		return nil, nil, false, err
	}
	if err = e.ensureAcc(); err != nil {
		return nil, nil, false, err
	}
	if leak, err = e.acc.ExactAnalysis(); err != nil {
		return nil, nil, false, err
	}
	return timing, leak, true, nil
}

// TotalLeak returns the corner-aggregated nominal total leakage [nW].
func (f *Family) TotalLeak() float64 {
	for i, e := range f.engines {
		f.per[i] = e.d.TotalLeak()
	}
	return f.Aggregate(f.per)
}

// Corner returns the binding deterministic corner STA against tmaxPs:
// the per-corner analysis with the largest max delay (ties break to
// the lowest corner index). It is that corner engine's result, valid
// as Engine.Corner documents.
func (f *Family) Corner(tmaxPs float64) (*sta.Result, error) {
	var worst *sta.Result
	for _, e := range f.engines {
		r, err := e.Corner(tmaxPs)
		if err != nil {
			return nil, err
		}
		if worst == nil || r.MaxDelay > worst.MaxDelay {
			worst = r
		}
	}
	return worst, nil
}

// ScoreAllLocalCtx scores independent candidates at every corner with
// the local scorer and returns their corner-aggregated objective-
// percentile deltas, written into dst as Engine.ScoreAllLocalCtx does.
// Corners are scored one after another, each into a buffer the family
// keeps, so a caller reusing dst allocates nothing once they have grown.
func (f *Family) ScoreAllLocalCtx(ctx context.Context, moves []Move, dst []float64) ([]float64, error) {
	if len(f.engines) == 1 {
		return f.engines[0].ScoreAllLocalCtx(ctx, moves, dst)
	}
	if len(moves) == 0 {
		return nil, nil
	}
	for i, e := range f.engines {
		var err error
		if f.scores[i], err = e.ScoreAllLocalCtx(ctx, moves, f.scores[i]); err != nil {
			return nil, err
		}
	}
	out := sized(dst, len(moves))
	for j := range moves {
		for i := range f.engines {
			f.per[i] = f.scores[i][j]
		}
		out[j] = f.Aggregate(f.per)
	}
	return out, nil
}

// CornerMetrics is one corner's end-state scoreboard entry, computed
// from fresh (non-incremental) analyses of the corner design.
type CornerMetrics struct {
	Name          string  `json:"name"`
	YieldAtTmax   float64 `json:"yield_at_tmax"`
	LeakPctNW     float64 `json:"leak_pct_nw"`
	LeakMeanNW    float64 `json:"leak_mean_nw"`
	DelayMeanPs   float64 `json:"delay_mean_ps"`
	CornerDelayPs float64 `json:"corner_delay_ps"`
	NominalLeakNW float64 `json:"nominal_leak_nw"`
}

// CornerScoreboard recomputes every corner's end-state metrics with
// fresh SSTA, exact leakage and deterministic corner STA — safe to
// call after the caller restored an assignment behind the engines'
// backs (it never reads the incremental caches).
func (f *Family) CornerScoreboard() ([]CornerMetrics, error) {
	out := make([]CornerMetrics, len(f.engines))
	for i, e := range f.engines {
		cm := CornerMetrics{Name: f.names[i]}
		sr, err := ssta.Analyze(e.d)
		if err != nil {
			return nil, fmt.Errorf("engine: corner %q: %w", f.names[i], err)
		}
		cm.YieldAtTmax = sr.Yield(e.cfg.TmaxPs)
		cm.DelayMeanPs = sr.Delay.Mean
		an, err := leakage.Exact(e.d)
		if err != nil {
			return nil, fmt.Errorf("engine: corner %q: %w", f.names[i], err)
		}
		cm.LeakPctNW = an.Quantile(e.cfg.LeakPercentile)
		cm.LeakMeanNW = an.MeanNW
		cm.NominalLeakNW = e.d.TotalLeak()
		// Fresh corner STA: the corner memo would be stale after a
		// direct assignment restore, so drop it first.
		e.dropCorner()
		r, err := e.Corner(e.cfg.TmaxPs)
		if err != nil {
			return nil, fmt.Errorf("engine: corner %q: %w", f.names[i], err)
		}
		cm.CornerDelayPs = r.MaxDelay
		out[i] = cm
	}
	return out, nil
}
