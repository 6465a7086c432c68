package opt

import (
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/tech"
)

// DualResult reports a delay-minimization-under-leakage-budget run.
type DualResult struct {
	Feasible     bool    // budget admits at least the all-HVT/min-size start
	DelayQPs     float64 // achieved eta-quantile of circuit delay [ps]
	LeakPctNW    float64 // objective-percentile leakage at exit [nW]
	BudgetNW     float64
	Moves        int
	SwapsToLVT   int
	SizeUps      int
	Runtime      time.Duration
	YieldTargetQ float64 // the eta used for the delay quantile

	// Corners holds the per-corner end-state scoreboard when the run
	// evaluated a scenario family (Options.Scenario non-nil).
	Corners []engine.CornerMetrics
}

// MinimizeDelayUnderLeakBudget solves the dual of the paper's problem
// — the "parametric yield maximization" formulation of the follow-on
// literature: make the circuit as fast (at the eta-quantile) as the
// statistical leakage budget allows. Starting from the least-leaky
// implementation (all HVT, minimum size), it greedily applies the
// speedup move (HVT→LVT swap or one-step upsize on the statistically
// critical path) with the best quantile-delay reduction per leakage
// spent, while the budget — on the o.LeakPercentile percentile of
// total leakage — holds. Each accepted move re-times only the moved
// gate's fanout cone through the engine.
func MinimizeDelayUnderLeakBudget(d *core.Design, o Options, budgetNW float64) (*DualResult, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use MinimizeDelayUnderLeakBudgetCtx
	return MinimizeDelayUnderLeakBudgetCtx(context.Background(), d, o, budgetNW)
}

// MinimizeDelayUnderLeakBudgetCtx is MinimizeDelayUnderLeakBudget with
// cancellation: the greedy loop checks ctx once per move and returns
// ctx.Err(), leaving the design in the last consistent state.
func MinimizeDelayUnderLeakBudgetCtx(ctx context.Context, d *core.Design, o Options, budgetNW float64) (*DualResult, error) {
	start := time.Now()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	res := &DualResult{BudgetNW: budgetNW, YieldTargetQ: o.YieldTarget}
	kappa := stats.NormalQuantile(o.YieldTarget)

	// Least-leaky start (before the engine builds its caches).
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		if o.EnableVth {
			if err := d.SetVth(g.ID, tech.HighVth); err != nil {
				return nil, err
			}
		}
		if err := d.SetSizeIndex(g.ID, 0); err != nil {
			return nil, err
		}
	}
	e, err := engine.NewFamily(d, engineConfig(o), o.Scenario)
	if err != nil {
		return nil, err
	}
	floorQ, err := e.LeakQuantile(o.LeakPercentile)
	if err != nil {
		return nil, err
	}
	if floorQ > budgetNW {
		res.Runtime = time.Since(start)
		return res, nil // even the floor exceeds the budget
	}
	res.Feasible = true

	maxMoves := o.moveCap(d)
	blacklist := newMoveSet(d)
	var q0, lq float64 // pre-move delay quantile / post-move leakage quantile
	var path []int     // the round's statistical critical path
	tally, err := search.Run(ctx, e, search.Policy{
		Optimizer: "dual",
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			if t.Moves >= maxMoves {
				return nil, nil
			}
			sr, err := e.Timing()
			if err != nil {
				return nil, err
			}
			d := e.Design()
			path = statCriticalPath(d, sr, kappa, path[:0])
			q0 = sr.Quantile(o.YieldTarget)

			// Best speedup candidate on the statistically critical path,
			// scored by local delay gain per leakage spent.
			var best engine.Move
			bestScore := 0.0
			for _, id := range path {
				g := d.Circuit.Gate(id)
				if g.Type == logic.Input {
					continue
				}
				dNow := d.GateDelay(id)
				lNow := d.Lib.Leak(g.Type, d.Vth[id], d.Size[id])
				consider := func(mv engine.Move, dNew, lNew float64) {
					if blacklist.has(mv) {
						return
					}
					gain := dNow - dNew
					cost := lNew - lNow
					if gain <= 0 || cost <= 0 {
						return
					}
					if score := gain / cost; score > bestScore {
						bestScore = score
						best = mv
					}
				}
				if o.EnableVth && d.Vth[id] == tech.HighVth {
					if mv, err := engine.NewVthSwap(d, id, tech.LowVth); err == nil {
						consider(mv,
							d.Lib.Delay(g.Type, tech.LowVth, d.Size[id], d.Load(id)),
							d.Lib.Leak(g.Type, tech.LowVth, d.Size[id]))
					}
				}
				if o.EnableSizing {
					if mv, ok := engine.NewUpsize(d, id); ok {
						s := d.Lib.Sizes[mv.ToIdx]
						consider(mv,
							d.Lib.Delay(g.Type, d.Vth[id], s, d.Load(id)),
							d.Lib.Leak(g.Type, d.Vth[id], s))
					}
				}
			}
			if best == nil {
				return nil, nil
			}
			return &search.Round{Moves: []engine.Move{best}}, nil
		},
		// Keep only moves that respect the budget and actually help the
		// delay quantile.
		Verify: func() (bool, error) {
			var err error
			if lq, err = e.LeakQuantile(o.LeakPercentile); err != nil {
				return false, err
			}
			q1, err := e.DelayQuantile(o.YieldTarget)
			if err != nil {
				return false, err
			}
			return lq <= budgetNW && q1 < q0-slackEps, nil
		},
		Rejected: func(mv engine.Move) { blacklist.add(mv) },
		Accepted: func(mv engine.Move, t *search.Tally) error {
			o.report(Progress{Optimizer: "dual", Phase: "speedup", Moves: t.Moves, Round: t.Rounds, LeakQNW: lq})
			return nil
		},
	})
	res.Moves += tally.Moves
	res.SwapsToLVT += tally.VthSwaps
	res.SizeUps += tally.SizeUps
	if err != nil {
		return nil, err
	}
	res.DelayQPs, err = e.DelayQuantile(o.YieldTarget)
	if err != nil {
		return nil, err
	}
	res.LeakPctNW, err = e.LeakQuantile(o.LeakPercentile)
	if err != nil {
		return nil, err
	}
	if o.Scenario != nil {
		res.Corners, err = e.CornerScoreboard()
		if err != nil {
			return nil, err
		}
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// LeakDelayTradeoff sweeps leakage budgets and returns the achieved
// delay quantiles — the dual-side view of the leakage/delay Pareto
// front. budgets must be ascending; each point runs the dual optimizer
// from scratch on a clone.
func LeakDelayTradeoff(d *core.Design, o Options, budgets []float64) ([]DualResult, error) {
	out := make([]DualResult, 0, len(budgets))
	for _, b := range budgets {
		cl := d.Clone()
		r, err := MinimizeDelayUnderLeakBudget(cl, o, b)
		if err != nil {
			return nil, err
		}
		out = append(out, *r)
	}
	// Sanity: more budget can only help (monotone non-increasing delay).
	for i := 1; i < len(out); i++ {
		if out[i].Feasible && out[i-1].Feasible && out[i].DelayQPs > out[i-1].DelayQPs+1e-6 {
			// Greedy noise can break monotonicity slightly; carry the
			// better point forward so the reported front is consistent.
			out[i].DelayQPs = math.Min(out[i].DelayQPs, out[i-1].DelayQPs)
		}
	}
	return out, nil
}
