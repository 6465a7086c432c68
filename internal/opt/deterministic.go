package opt

import (
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/sta"
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
	res, err := sizeToTarget(ctx, e, 0, 0, Options{}, "min-delay")
	if err != nil {
		return 0, err
	}
	return res.NominalDelayPs, nil
}

// sizeToTarget runs the phase-A greedy sizing loop at the engine's
// corner as a first-accept search policy: while the max delay exceeds
// target, propose the critical-path gate whose one-step upsize most
// reduces a local delay estimate (own speedup minus the slowdown it
// inflicts on its drivers) and verify with the engine's memoized
// corner STA — the driver reverts and the policy blacklists the gate
// when the estimate was wrong. target = 0 sizes for minimum delay.
// maxMoves 0 means 10×n.
func sizeToTarget(ctx context.Context, e *engine.Family, target float64, maxMoves int, o Options, optimizer string) (*Result, error) {
	res := &Result{}
	d := e.Design()
	c := d.Circuit
	if maxMoves == 0 {
		maxMoves = 10 * c.NumGates()
	}
	dLc, dVc := e.CornerOffsets()
	blacklist := make(map[int]bool)
	analyze := func() (*sta.Result, error) {
		return e.Corner(math.Max(target, 1))
	}
	r, err := analyze()
	if err != nil {
		return nil, err
	}
	iter := -1
	tally, err := search.Run(ctx, e, search.Policy{
		Optimizer: optimizer,
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			iter++
			if target > 0 && r.MaxDelay <= target {
				res.Feasible = true
				return nil, nil
			}
			if t.Moves >= maxMoves {
				return nil, nil
			}
			// Candidates: non-blacklisted critical-path gates below max size.
			d := e.Design()
			path := r.CriticalPath(d)
			bestID := -1
			bestEst := -slackEps // require a strictly improving estimate
			for _, id := range path {
				g := c.Gate(id)
				if g.Type == logic.Input || blacklist[id] {
					continue
				}
				si := d.SizeIndex(id)
				if si+1 >= len(d.Lib.Sizes) {
					continue
				}
				est := upsizeEstimate(d, id, d.Lib.Sizes[si+1], dLc, dVc)
				if est < bestEst {
					bestEst = est
					bestID = id
				}
			}
			if bestID < 0 {
				res.Feasible = target > 0 && r.MaxDelay <= target
				return nil, nil
			}
			mv, ok := engine.NewUpsize(d, bestID)
			if !ok {
				// Spend the round; something else must change first.
				blacklist[bestID] = true
				return &search.Round{}, nil
			}
			return &search.Round{Moves: []engine.Move{mv}}, nil
		},
		Verify: func() (bool, error) {
			r2, err := analyze()
			if err != nil {
				return false, err
			}
			if r2.MaxDelay >= r.MaxDelay-slackEps {
				// The local estimate lied (off-path loading dominated).
				return false, nil
			}
			r = r2
			return true, nil
		},
		Rejected: func(mv engine.Move) { blacklist[mv.Gate()] = true },
		Accepted: func(mv engine.Move, t *search.Tally) error {
			o.report(Progress{Optimizer: optimizer, Phase: "sizing", Moves: t.Moves, Round: t.Rounds, LeakQNW: e.Design().TotalLeak()})
			// Progress invalidates stale blacklist knowledge.
			if len(blacklist) > 0 && iter%16 == 0 {
				blacklist = make(map[int]bool)
			}
			return nil
		},
	})
	addTally(res, tally)
	if err != nil {
		return nil, err
	}
	res.NominalDelayPs = r.MaxDelay
	res.NominalLeakNW = d.TotalLeak()
	return res, nil
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

// Deterministic runs the baseline optimizer entirely at the worst-case
// systematic corner (Options.CornerSigma): phase A sizes the circuit
// until the corner delay meets Tmax (swept over phaseAMargins); phase
// B greedily applies the leakage-recovery move with the best nominal
// leakage-saved per corner-slack-consumed ratio while corner slack
// allows it. The best corner-feasible end point of the sweep is kept.
// This is the classic corner-based dual-Vth/sizing flow the paper
// compares against: it guarantees yield by uniform pessimism, and
// pays for it in leakage.
func Deterministic(d *core.Design, o Options) (*Result, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use DeterministicCtx
	return DeterministicCtx(context.Background(), d, o)
}

// DeterministicCtx is Deterministic with cancellation: both phases
// check ctx at move granularity and return ctx.Err() on cancellation,
// leaving the design in the last consistent (fully applied) state.
func DeterministicCtx(ctx context.Context, d *core.Design, o Options) (*Result, error) {
	start := time.Now()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	e, err := engine.NewFamily(d, engineConfig(o), o.Scenario)
	if err != nil {
		return nil, err
	}

	var best *core.Design
	bestLeak := math.Inf(1)
	total := &Result{}

	margins := phaseAMargins
	if !o.EnableSizing {
		margins = margins[:1]
	}
	for _, m := range margins {
		res := &Result{}
		if o.EnableSizing {
			res, err = sizeToTarget(ctx, e, o.TmaxPs*m, o.MaxMoves, o, "deterministic")
			if err != nil {
				return nil, err
			}
		}
		// Feasibility at the real constraint, regardless of whether the
		// tightened sweep target was reachable.
		r, err := e.Corner(o.TmaxPs)
		if err != nil {
			return nil, err
		}
		total.SizeUps += res.SizeUps
		total.Moves += res.Moves
		if r.MaxDelay > o.TmaxPs+slackEps {
			break // even the real constraint is out of reach; deeper targets won't help
		}
		if err := detPhaseB(ctx, e, o, total); err != nil {
			return nil, err
		}
		// The incumbent objective is the corner-aggregated nominal
		// leakage; with no scenario this is exactly d.TotalLeak().
		if leak := e.TotalLeak(); leak < bestLeak {
			bestLeak = leak
			best = d.Clone()
		}
	}
	if best == nil {
		corner, err := e.Corner(o.TmaxPs)
		if err != nil {
			return nil, err
		}
		total.NominalDelayPs = corner.MaxDelay
		total.NominalLeakNW = d.TotalLeak()
		total.Runtime = time.Since(start)
		return total, nil
	}
	d.CopyAssignmentFrom(best)
	nominal, err := sta.Analyze(d, o.TmaxPs)
	if err != nil {
		return nil, err
	}
	total.NominalDelayPs = nominal.MaxDelay
	total.NominalLeakNW = d.TotalLeak()
	total.Feasible = true
	if o.Scenario != nil {
		cms, err := e.CornerScoreboard()
		if err != nil {
			return nil, err
		}
		total.Corners = cms
	}
	total.Runtime = time.Since(start)
	return total, nil
}

// detPhaseB drains all corner-feasible leakage-recovery moves as a
// first-accept search policy.
func detPhaseB(ctx context.Context, e *engine.Family, o Options, res *Result) error {
	d := e.Design()
	maxMoves := o.MaxMoves
	if maxMoves == 0 {
		maxMoves = 10 * d.Circuit.NumGates()
	}
	base := res.Moves // accumulated across the margin sweep
	blocked := make(map[moveKey]bool)
	tally, err := search.Run(ctx, e, search.Policy{
		Optimizer: "deterministic",
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			if base+t.Moves >= maxMoves {
				return nil, nil
			}
			r, err := e.Corner(o.TmaxPs)
			if err != nil {
				return nil, err
			}
			mv, ok := bestCornerRecoveryMove(e, o, r.Slack, blocked)
			if !ok {
				return nil, nil
			}
			return &search.Round{Moves: []engine.Move{mv}}, nil
		},
		// The feasibility condition is exact for these move types (see
		// the package comment), so a violation here would be a bug; the
		// check stays as a cheap invariant guard.
		Verify: func() (bool, error) {
			r2, err := e.Corner(o.TmaxPs)
			if err != nil {
				return false, err
			}
			return r2.MaxDelay <= o.TmaxPs+slackEps, nil
		},
		Rejected: func(mv engine.Move) { blocked[keyOf(mv)] = true },
		Accepted: func(mv engine.Move, t *search.Tally) error {
			o.report(Progress{Optimizer: "deterministic", Phase: "recovery", Moves: base + t.Moves, Round: t.Rounds, LeakQNW: e.Design().TotalLeak()})
			return nil
		},
	})
	addTally(res, tally)
	return err
}

// bestCornerRecoveryMove scans all gates for the highest
// leakage-saved/slack-consumed phase-B move whose own-delay increase
// (at the corner) fits in the gate's corner slack.
func bestCornerRecoveryMove(e *engine.Family, o Options, slack []float64, blocked map[moveKey]bool) (engine.Move, bool) {
	d := e.Design()
	dLc, dVc := e.CornerOffsets()
	bestScore := 0.0
	var best engine.Move
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		id := g.ID
		load := d.Load(id)
		dNow := cellDelayAt(d, g.Type, d.Vth[id], d.Size[id], load, dLc, dVc)
		lNow := d.Lib.Leak(g.Type, d.Vth[id], d.Size[id])
		consider := func(mv engine.Move, dNew, lNew float64) {
			dd := dNew - dNow
			dl := lNow - lNew
			if dl <= 0 || blocked[keyOf(mv)] {
				return
			}
			if dd > slack[id]-slackEps {
				return
			}
			score := dl / math.Max(dd, 1e-6)
			if score > bestScore {
				bestScore = score
				best = mv
			}
		}
		if o.EnableVth && d.Vth[id] == tech.LowVth {
			if mv, err := engine.NewVthSwap(d, id, tech.HighVth); err == nil {
				consider(mv,
					cellDelayAt(d, g.Type, tech.HighVth, d.Size[id], load, dLc, dVc),
					d.Lib.Leak(g.Type, tech.HighVth, d.Size[id]))
			}
		}
		if o.EnableSizing {
			if mv, ok := engine.NewDownsize(d, id); ok {
				s := d.Lib.Sizes[mv.ToIdx]
				consider(mv,
					cellDelayAt(d, g.Type, d.Vth[id], s, load, dLc, dVc),
					d.Lib.Leak(g.Type, d.Vth[id], s))
			}
		}
	}
	return best, best != nil
}
