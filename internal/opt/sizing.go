package opt

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/tech"
)

// MinimumDelay greedily upsizes gates until no single size-up move
// improves the nominal max delay, and returns that delay [ps]. It
// mutates d; callers wanting only the number should pass a clone.
// The experiments use it to normalize delay targets (Tmax = m·Dmin).
func MinimumDelay(d *core.Design) (float64, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use MinimumDelayCtx
	return MinimumDelayCtx(context.Background(), d)
}

// MinimumDelayCtx is MinimumDelay with cancellation: the sizing loop
// checks ctx once per move, so a cancelled job stops within one move.
func MinimumDelayCtx(ctx context.Context, d *core.Design) (float64, error) {
	e, err := engine.NewFamily(d, engine.Config{TmaxPs: 1}, nil)
	if err != nil {
		return 0, err
	}
	return upsize(ctx, e, cornerView(e, 1, "min-delay"), 0, Options{}, &Result{})
}

// sizingView is the timing phase A reads: the delay it drives below
// its target, the critical path it picks gates from, the process point
// its upsize estimates are taken at, and the leakage its progress
// reports carry (nil reports none).
type sizingView struct {
	optimizer string
	delay     func() (float64, error)
	path      func(dst []int) ([]int, error)
	dL, dV    float64
	leak      func() float64
}

// sstaView is the statistical flow's view: the η-quantile of circuit
// delay and the statistical critical path, with estimates at the
// nominal point.
func sstaView(e *engine.Family, o Options) sizingView {
	kappa := stats.NormalQuantile(o.YieldTarget)
	return sizingView{
		optimizer: "statistical",
		delay:     func() (float64, error) { return e.DelayQuantile(o.YieldTarget) },
		path: func(dst []int) ([]int, error) {
			sr, err := e.Timing()
			if err != nil {
				return nil, err
			}
			return statCriticalPath(e.Design(), sr, kappa, dst), nil
		},
	}
}

// cornerView is the corner flows' view: the max delay and critical
// path of the engine's corner STA against tmaxPs (neither depends on
// tmaxPs), with estimates at the corner excursion and nominal leakage
// in the progress reports.
func cornerView(e *engine.Family, tmaxPs float64, optimizer string) sizingView {
	dL, dV := e.CornerOffsets()
	return sizingView{
		optimizer: optimizer,
		delay: func() (float64, error) {
			r, err := e.Corner(tmaxPs)
			if err != nil {
				return 0, err
			}
			return r.MaxDelay, nil
		},
		path: func([]int) ([]int, error) {
			r, err := e.Corner(tmaxPs)
			if err != nil {
				return nil, err
			}
			return r.CriticalPath(e.Design()), nil
		},
		dL: dL, dV: dV,
		leak: e.Design().TotalLeak,
	}
}

// upsize is phase A, the TILOS-style sizing loop every flow shares, as
// a first-accept search policy: while v's delay exceeds target, propose
// the critical-path gate whose one-step upsize most reduces a local
// delay estimate (own speedup minus the slowdown it inflicts on its
// drivers) and keep it only if the delay actually dropped — the driver
// reverts and the policy blacklists the gate when the estimate was
// wrong. target 0 sizes for minimum delay. The delay is re-read every
// round and kept as a number: a timing result is only valid until the
// next move. upsize adds its moves to res, stops when res.Moves reaches
// the run's move cap, and returns the delay at exit.
func upsize(ctx context.Context, e *engine.Family, v sizingView, target float64, o Options, res *Result) (float64, error) {
	maxMoves := o.moveCap(e.Design())
	base := res.Moves // accumulated across the margin sweep
	blacklist := make(map[int]bool)
	var delay float64 // the delay before the round's move
	var path []int    // the round's critical path
	var round search.Round
	iter := -1
	tally, err := search.Run(ctx, e, search.Policy{
		Optimizer: v.optimizer,
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			iter++
			var err error
			if delay, err = v.delay(); err != nil {
				return nil, err
			}
			if delay <= target || base+t.Moves >= maxMoves {
				return nil, nil
			}
			if path, err = v.path(path[:0]); err != nil {
				return nil, err
			}
			d := e.Design()
			bestID := -1
			bestEst := -slackEps // require a strictly improving estimate
			for _, id := range path {
				g := d.Circuit.Gate(id)
				if g.Type == logic.Input || blacklist[id] {
					continue
				}
				si := d.SizeIndex(id)
				if si+1 >= len(d.Lib.Sizes) {
					continue
				}
				if est := upsizeEstimate(d, id, d.Lib.Sizes[si+1], v.dL, v.dV); est < bestEst {
					bestEst = est
					bestID = id
				}
			}
			if bestID < 0 {
				return nil, nil
			}
			mv, ok := engine.NewUpsize(d, bestID)
			round.Moves = round.Moves[:0]
			if !ok {
				// Spend the round; something else must change first.
				blacklist[bestID] = true
				return &round, nil
			}
			round.Moves = append(round.Moves, mv)
			return &round, nil
		},
		Verify: func() (bool, error) {
			after, err := v.delay()
			if err != nil {
				return false, err
			}
			// A failure means the local estimate lied (off-path loading
			// dominated).
			return after < delay-slackEps, nil
		},
		Rejected: func(mv engine.Move) { blacklist[mv.Gate()] = true },
		Accepted: func(mv engine.Move, t *search.Tally) error {
			if o.Progress != nil {
				ev := Progress{Optimizer: v.optimizer, Phase: "sizing", Moves: base + t.Moves, Round: t.Rounds}
				if v.leak != nil {
					ev.LeakQNW = v.leak()
				}
				o.report(ev)
			}
			// Progress invalidates stale blacklist knowledge.
			if len(blacklist) > 0 && iter%16 == 0 {
				clear(blacklist)
			}
			return nil
		},
	})
	addTally(res, tally)
	return delay, err
}

// cellDelayAt evaluates a cell's delay at the given process point.
func cellDelayAt(d *core.Design, ty logic.GateType, v tech.VthClass, size, load, dLnm, dVthV float64) float64 {
	if stats.EqZero(dLnm) && stats.EqZero(dVthV) {
		return d.Lib.Delay(ty, v, size, load)
	}
	return d.Lib.DelayWith(ty, v, size, load, dLnm, dVthV)
}

// upsizeEstimate returns the estimated change [ps] in the critical
// path delay from setting gate id to newSize at the given process
// point: its own delay change plus the load-induced delay change of
// each of its drivers (any of which may be on the critical path).
// Negative is good.
func upsizeEstimate(d *core.Design, id int, newSize, dLnm, dVthV float64) float64 {
	g := d.Circuit.Gate(id)
	oldSize := d.Size[id]
	load := d.Load(id)
	own := cellDelayAt(d, g.Type, d.Vth[id], newSize, load, dLnm, dVthV) -
		cellDelayAt(d, g.Type, d.Vth[id], oldSize, load, dLnm, dVthV)
	est := own
	dCin := d.Lib.InputCap(g.Type, newSize) - d.Lib.InputCap(g.Type, oldSize)
	pins := map[int]int{}
	for _, f := range g.Fanin {
		pins[f]++
	}
	for f, n := range pins {
		fg := d.Circuit.Gate(f)
		if fg.Type == logic.Input {
			continue
		}
		fload := d.Load(f)
		before := cellDelayAt(d, fg.Type, d.Vth[f], d.Size[f], fload, dLnm, dVthV)
		after := cellDelayAt(d, fg.Type, d.Vth[f], d.Size[f], fload+float64(n)*dCin, dLnm, dVthV)
		est += after - before
	}
	return est
}

// phaseAMargins is the sequence of target-tightening factors both
// optimizers sweep: sizing deeper than the constraint requires opens
// slack that phase B converts into HVT swaps, and the best end point
// of the sweep wins. A pure "size just enough, then recover" greedy
// is a poor local optimum — oversize-then-swap usually beats it,
// because an HVT swap buys ~20× leakage for ~20% delay while a size
// step costs ~1.3× leakage for a similar speedup.
var phaseAMargins = []float64{1.0, 0.93, 0.86, 0.80, 0.74}
