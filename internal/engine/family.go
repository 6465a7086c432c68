// Family: the corner-indexed evaluation context. One Family owns one
// Engine per scenario corner, all evaluating the SAME assignment
// arrays (corner views alias the base design's Vth/Size slices, see
// core.CornerView) against per-corner libraries, body-bias vectors and
// process-corner sigmas. A move committed through the Family is
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
//   - leakage objective: worst corner (max) or weight-normalized
//     average, per scenario.Matrix.Aggregate
//
// A 1×1 nominal matrix degenerates to the single-engine evaluation
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
	base    *core.Design
	m       *scenario.Matrix
	engines []*Engine
	names   []string
	weights []float64 // normalized over the matrix
}

// NewFamily builds the per-corner engines for the matrix (nil ⇒ the
// 1×1 nominal matrix). Corner 0 at the nominal operating point
// evaluates the base design directly, so a nominal matrix adds no
// indirection to the values the engine computes.
func NewFamily(d *core.Design, cfg Config, m *scenario.Matrix) (*Family, error) {
	if m == nil {
		m = scenario.Nominal()
	}
	rs, err := m.Resolve(d.Lib, d.Circuit)
	if err != nil {
		return nil, err
	}
	f := &Family{base: d, m: m}
	for i, r := range rs {
		ci := cfg
		if r.Sigma >= 0 {
			ci.CornerSigma = r.Sigma
		}
		cd := d
		if !(i == 0 && r.Nominal) {
			cd, err = d.CornerView(r.Lib, r.BiasVth)
			if err != nil {
				return nil, err
			}
		}
		e, err := New(cd, ci)
		if err != nil {
			return nil, fmt.Errorf("engine: corner %q: %w", r.Name, err)
		}
		f.engines = append(f.engines, e)
		f.names = append(f.names, r.Name)
		f.weights = append(f.weights, r.Weight)
	}
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
func (e *Engine) mirror(m Move, revert bool) error {
	if revert {
		metReverted.Inc()
	} else {
		metApplied.Inc()
	}
	return e.noteChange(m.Gate())
}

// Apply performs a move on the shared assignment and updates every
// corner's caches incrementally. An error leaves the family in an
// undefined state (a mirror failure means one corner's rebuilt cache
// failed construction); callers must treat it as fatal.
func (f *Family) Apply(m Move) error {
	if err := f.engines[0].Apply(m); err != nil {
		return err
	}
	for i, e := range f.engines[1:] {
		if err := e.mirror(m, false); err != nil {
			return fmt.Errorf("engine: corner %q mirror: %w", f.names[i+1], err)
		}
	}
	return nil
}

// Revert undoes a move across every corner (see Apply).
func (f *Family) Revert(m Move) error {
	if err := f.engines[0].Revert(m); err != nil {
		return err
	}
	for i, e := range f.engines[1:] {
		if err := e.mirror(m, true); err != nil {
			return fmt.Errorf("engine: corner %q mirror: %w", f.names[i+1], err)
		}
	}
	return nil
}

// Design returns the base design the family optimizes (the shared
// assignment).
func (f *Family) Design() *core.Design { return f.base }

// Config returns the primary corner's resolved configuration.
func (f *Family) Config() Config { return f.engines[0].cfg }

// CornerOffsets returns the primary corner's deterministic process-
// corner excursion.
func (f *Family) CornerOffsets() (dLnm, dVthV float64) { return f.engines[0].CornerOffsets() }

// Matrix returns the scenario matrix the family was built from.
func (f *Family) Matrix() *scenario.Matrix { return f.m }

// NumCorners returns the number of corners.
func (f *Family) NumCorners() int { return len(f.engines) }

// Names returns the corner names, index-aligned with Engines.
func (f *Family) Names() []string { return f.names }

// Engines exposes the per-corner engines (read-only: mutate only
// through Family Apply/Revert/Refresh).
func (f *Family) Engines() []*Engine { return f.engines }

// Primary returns the corner-0 engine.
func (f *Family) Primary() *Engine { return f.engines[0] }

// Refresh rebuilds every corner's caches from the shared assignment.
func (f *Family) Refresh() error {
	for i, e := range f.engines {
		if err := e.Refresh(); err != nil {
			return fmt.Errorf("engine: corner %q refresh: %w", f.names[i], err)
		}
	}
	return nil
}

// aggregate collapses per-corner objective values per the matrix's
// aggregation mode. A single corner passes through untouched.
func (f *Family) aggregate(per []float64) float64 {
	if len(per) == 1 {
		return per[0]
	}
	if f.m.Aggregate == scenario.Weighted {
		s := 0.0
		for i, v := range per {
			s += f.weights[i] * v
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

// Aggregate collapses per-corner objective values (index-aligned with
// Engines) per the matrix's aggregation mode — exported for callers
// assembling their own per-corner metrics.
func (f *Family) Aggregate(per []float64) float64 { return f.aggregate(per) }

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
// consume without violating any corner.
func (f *Family) StatisticalSlack() ([]float64, error) {
	out, err := f.engines[0].StatisticalSlack()
	if err != nil {
		return nil, err
	}
	if len(f.engines) == 1 {
		return out, nil
	}
	min := append([]float64(nil), out...)
	for _, e := range f.engines[1:] {
		s, err := e.StatisticalSlack()
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
	per := make([]float64, len(f.engines))
	for i, e := range f.engines {
		q, err := e.LeakQuantile(p)
		if err != nil {
			return 0, err
		}
		per[i] = q
	}
	return f.aggregate(per), nil
}

// LeakMean returns the corner-aggregated mean total leakage [nW].
func (f *Family) LeakMean() (float64, error) {
	per := make([]float64, len(f.engines))
	for i, e := range f.engines {
		m, err := e.LeakMean()
		if err != nil {
			return 0, err
		}
		per[i] = m
	}
	return f.aggregate(per), nil
}

// ExactLeakQuantile returns the corner-aggregated p-quantile from the
// exact O(n²k) leakage analysis — the sweep-selection objective.
func (f *Family) ExactLeakQuantile(p float64) (float64, error) {
	per := make([]float64, len(f.engines))
	for i, e := range f.engines {
		an, err := leakage.Exact(e.d)
		if err != nil {
			return 0, err
		}
		per[i] = an.Quantile(p)
	}
	return f.aggregate(per), nil
}

// TotalLeak returns the corner-aggregated nominal total leakage [nW].
func (f *Family) TotalLeak() float64 {
	per := make([]float64, len(f.engines))
	for i, e := range f.engines {
		per[i] = e.d.TotalLeak()
	}
	return f.aggregate(per)
}

// Corner returns the binding deterministic corner STA against tmaxPs:
// the per-corner analysis with the largest max delay (ties break to
// the lowest corner index).
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

// ScoreAllLocalCtx scores independent candidates across every corner
// with the local timing surrogate and returns corner-aggregated
// scores: DLeakQNW aggregated per the matrix, DMarginPs the min over
// corners, DOwnPs/DLeakNomNW from the primary corner. Corners are
// scored one after another.
func (f *Family) ScoreAllLocalCtx(ctx context.Context, moves []Move) ([]Score, error) {
	if len(f.engines) == 1 {
		return f.engines[0].ScoreAllLocalCtx(ctx, moves)
	}
	if len(moves) == 0 {
		return nil, nil
	}
	per := make([][]Score, len(f.engines))
	for i, e := range f.engines {
		var err error
		if per[i], err = e.ScoreAllLocalCtx(ctx, moves); err != nil {
			return nil, err
		}
	}
	out := make([]Score, len(moves))
	tmp := make([]float64, len(f.engines))
	for j := range moves {
		s := per[0][j] // DOwnPs and DLeakNomNW stay the primary's
		for i := range f.engines {
			tmp[i] = per[i][j].DLeakQNW
		}
		s.DLeakQNW = f.aggregate(tmp)
		for i := 1; i < len(f.engines); i++ {
			if m := per[i][j].DMarginPs; m < s.DMarginPs {
				s.DMarginPs = m
			}
		}
		out[j] = s
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
		// Fresh corner STA (Engine.Corner memoizes and would be stale
		// after a direct assignment restore).
		r, err := e.cornerSTA(e.cfg.TmaxPs)
		if err != nil {
			return nil, fmt.Errorf("engine: corner %q: %w", f.names[i], err)
		}
		cm.CornerDelayPs = r.MaxDelay
		out[i] = cm
	}
	return out, nil
}
