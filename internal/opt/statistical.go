package opt

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/search"
	"repro/internal/ssta"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/yield"
)

// StatResult extends Result with the statistical end-state metrics.
type StatResult struct {
	Result
	YieldAtTmax  float64 // SSTA timing yield at Tmax on exit
	LeakMeanNW   float64 // statistical mean leakage on exit
	LeakPctNW    float64 // objective percentile of leakage on exit
	DelayMeanPs  float64
	DelaySigmaPs float64
	// ISYield is the importance-sampled Monte Carlo verification of
	// the final design's timing yield, present when Options.ISVerify
	// was set (and the run was single-corner). Informational: SSTA
	// yield gates Feasible either way.
	ISYield *yield.ISEstimate
}

// Statistical runs the paper's optimizer. Phase A upsizes
// statistically critical gates until the SSTA timing yield at Tmax
// reaches the target η. Phase B greedily applies the leakage-recovery
// move with the best reduction of the objective leakage percentile per
// unit of statistical timing metric consumed, batch-accepting against
// per-gate statistical slacks and verifying each batch with the
// incrementally maintained SSTA (peeling back just enough moves to
// restore feasibility). One engine family carries the timing/leakage
// caches across the whole margin sweep.
func Statistical(d *core.Design, o Options) (*StatResult, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use StatisticalCtx
	return StatisticalCtx(context.Background(), d, o)
}

// StatisticalCtx is Statistical with cancellation: both phases check
// ctx at move (phase A) or batch (phase B) granularity and return
// ctx.Err(), leaving the design in the last consistent state.
func StatisticalCtx(ctx context.Context, d *core.Design, o Options) (*StatResult, error) {
	start := time.Now()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	res := &StatResult{}
	e, err := engine.NewFamily(d, engineConfig(o), o.Scenario)
	if err != nil {
		return nil, err
	}

	var best *core.Design
	bestQ := math.Inf(1)

	margins := phaseAMargins
	if !o.EnableSizing {
		margins = margins[:1]
	}
	for _, m := range margins {
		if err := statPhaseA(ctx, e, o, o.TmaxPs*m, res); err != nil {
			return nil, err
		}
		q, err := e.DelayQuantile(o.YieldTarget)
		if err != nil {
			return nil, err
		}
		if q > o.TmaxPs {
			break // the real yield constraint is out of reach
		}
		if err := statPhaseB(ctx, e, o, res); err != nil {
			return nil, err
		}
		q, err = e.ExactLeakQuantile(o.LeakPercentile)
		if err != nil {
			return nil, err
		}
		if q < bestQ {
			bestQ = q
			best = d.Clone()
		}
	}
	if best != nil {
		d.CopyAssignmentFrom(best)
	}
	return finishStat(ctx, d, e, o, res, start)
}

// statPhaseA upsizes statistically critical gates until the
// eta-quantile of circuit delay meets target (or no move helps), as a
// first-accept search policy: propose the statistical-critical-path
// gate with the best local upsize estimate, verify that the delay
// quantile actually dropped.
func statPhaseA(ctx context.Context, e *engine.Family, o Options, target float64, res *StatResult) error {
	if !o.EnableSizing {
		return nil
	}
	d := e.Design()
	kappa := stats.NormalQuantile(o.YieldTarget)
	maxMoves := o.MaxMoves
	if maxMoves == 0 {
		maxMoves = 10 * d.Circuit.NumGates()
	}
	base := res.Moves // accumulated across the margin sweep
	blacklist := make(map[int]bool)
	var q0 float64 // delay quantile before the round's move
	iter := -1
	tally, err := search.Run(ctx, e, search.Policy{
		Optimizer: "statistical",
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			iter++
			var err error
			if q0, err = e.DelayQuantile(o.YieldTarget); err != nil {
				return nil, err
			}
			if q0 <= target || base+t.Moves >= maxMoves {
				return nil, nil
			}
			sr, err := e.Timing()
			if err != nil {
				return nil, err
			}
			d := e.Design()
			path := statCriticalPath(d, sr, kappa)
			bestID := -1
			bestEst := -slackEps
			for _, id := range path {
				g := d.Circuit.Gate(id)
				if g.Type == logic.Input || blacklist[id] {
					continue
				}
				si := d.SizeIndex(id)
				if si+1 >= len(d.Lib.Sizes) {
					continue
				}
				if est := upsizeEstimate(d, id, d.Lib.Sizes[si+1], 0, 0); est < bestEst {
					bestEst = est
					bestID = id
				}
			}
			if bestID < 0 {
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
			q1, err := e.DelayQuantile(o.YieldTarget)
			if err != nil {
				return false, err
			}
			return q1 < q0-slackEps, nil
		},
		Rejected: func(mv engine.Move) { blacklist[mv.Gate()] = true },
		Accepted: func(mv engine.Move, t *search.Tally) error {
			o.report(Progress{Optimizer: "statistical", Phase: "sizing", Moves: base + t.Moves, Round: t.Rounds})
			// Progress invalidates stale blacklist knowledge.
			if len(blacklist) > 0 && iter%16 == 0 {
				blacklist = make(map[int]bool)
			}
			return nil
		},
	})
	addTally(&res.Result, tally)
	return err
}

// statPhaseB drains yield-feasible leakage-recovery moves, batch-
// accepting against per-gate statistical slacks and peeling a batch
// back until the incremental SSTA verifies it. Timing is maintained
// incrementally — only the fanout cones of moved gates are re-timed —
// and candidates are scored read-only against the leakage
// accumulator, which is what keeps large-circuit optimization in
// seconds.
func statPhaseB(ctx context.Context, e *engine.Family, o Options, res *StatResult) error {
	d := e.Design()
	maxMoves := o.MaxMoves
	if maxMoves == 0 {
		maxMoves = 10 * d.Circuit.NumGates()
	}
	blocked := make(map[moveKey]bool)
	// Batch size: enough to amortize the slack refresh, small enough
	// that per-gate slack bookkeeping stays honest.
	batchCap := d.Circuit.NumGates() / 64
	if batchCap < 4 {
		batchCap = 4
	}
	const safety = 0.8 // fraction of a gate's statistical slack a batch may consume

	base := res.Moves // accumulated across the margin sweep
	tally, err := search.Run(ctx, e, search.Policy{
		Optimizer: "statistical",
		Propose: func(ctx context.Context, t *search.Tally) (*search.Round, error) {
			if base+t.Moves >= maxMoves {
				return nil, nil
			}
			slack, err := e.StatisticalSlack()
			if err != nil {
				return nil, err
			}
			cands, err := statCandidates(ctx, e, o, slack, safety, blocked)
			if err != nil {
				return nil, err
			}
			if len(cands) == 0 {
				return nil, nil
			}

			// Select greedily against a consumable per-gate slack budget.
			budget := make(map[int]float64, batchCap)
			var selected []engine.Move
			for _, cand := range cands {
				if len(selected) >= batchCap || base+t.Moves+len(selected) >= maxMoves {
					break
				}
				id := cand.mv.Gate()
				b, seen := budget[id]
				if !seen {
					b = safety * slack[id]
				}
				if cand.dMetric > b-slackEps {
					continue
				}
				budget[id] = b - cand.dMetric
				selected = append(selected, cand.mv)
			}
			if len(selected) == 0 {
				return nil, nil
			}
			return &search.Round{Moves: selected, Mode: search.Batch}, nil
		},
		Verify: func() (bool, error) {
			y, err := e.Yield()
			if err != nil {
				return false, err
			}
			return y >= o.YieldTarget, nil
		},
		Rejected: func(mv engine.Move) { blocked[keyOf(mv)] = true },
		RoundDone: func(accepted int, t *search.Tally) (bool, error) {
			if accepted == 0 {
				// The whole batch bounced: the per-gate slack heuristic is
				// too optimistic here; stop rather than thrash.
				return true, nil
			}
			if o.Progress != nil {
				lq, err := e.LeakQuantile(o.LeakPercentile)
				if err != nil {
					return false, err
				}
				o.report(Progress{Optimizer: "statistical", Phase: "recovery", Moves: base + t.Moves, Round: t.Rounds, LeakQNW: lq})
			}
			return false, nil
		},
	})
	addTally(&res.Result, tally)
	if err != nil {
		return err
	}

	// Polish: the batch heuristic under-uses the last sliver of slack
	// (safety factor, whole-batch bounces). Drain the boundary with
	// exact single-move first-accept rounds: the driver applies
	// candidates best-score first, verifies the yield (incrementally
	// re-timed), and keeps the first survivor.
	base = res.Moves
	var yield float64 // last verified yield, for the progress report
	tally, err = search.Run(ctx, e, search.Policy{
		Optimizer: "statistical",
		Propose: func(ctx context.Context, t *search.Tally) (*search.Round, error) {
			if base+t.Moves >= maxMoves {
				return nil, nil
			}
			slack, err := e.StatisticalSlack()
			if err != nil {
				return nil, err
			}
			cands, err := statCandidates(ctx, e, o, slack, 1.0, blocked)
			if err != nil {
				return nil, err
			}
			if len(cands) == 0 {
				return nil, nil
			}
			moves := make([]engine.Move, len(cands))
			for i, cand := range cands {
				moves[i] = cand.mv
			}
			return &search.Round{Moves: moves}, nil
		},
		Verify: func() (bool, error) {
			y, err := e.Yield()
			if err != nil {
				return false, err
			}
			yield = y
			return y >= o.YieldTarget, nil
		},
		Rejected: func(mv engine.Move) { blocked[keyOf(mv)] = true },
		Accepted: func(mv engine.Move, t *search.Tally) error {
			if o.Progress != nil {
				lq, err := e.LeakQuantile(o.LeakPercentile)
				if err != nil {
					return err
				}
				o.report(Progress{Optimizer: "statistical", Phase: "polish", Moves: base + t.Moves, Round: t.Rounds, LeakQNW: lq, Yield: yield})
			}
			return nil
		},
		RoundDone: func(accepted int, t *search.Tally) (bool, error) {
			return accepted == 0, nil
		},
	})
	addTally(&res.Result, tally)
	return err
}

// statCand is one scored phase-B candidate.
type statCand struct {
	mv      engine.Move
	dMetric float64 // increase of the gate's mean delay metric
	score   float64 // Δ(objective leakage percentile) per dMetric
}

// statCandidates scores every feasible phase-B move by its reduction
// of the objective leakage percentile per unit of mean-delay slack
// consumed, and returns them best first. The per-move delay effect is
// the local cell-delay change (a phase-B move never changes the gate's
// own load), so candidates prefilter analytically and the
// leakage-percentile deltas come from the engine's read-only local
// scorer. Mean delay is the right
// currency against StatisticalSlack's sigma-adjusted budget; the
// move's (small) effect on the circuit sigma is caught by the
// incremental-SSTA batch verification.
func statCandidates(ctx context.Context, e *engine.Family, o Options, slack []float64, safety float64, blocked map[moveKey]bool) ([]statCand, error) {
	d := e.Design()
	var cands []statCand
	var moves []engine.Move
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		id := g.ID
		if slack[id] <= slackEps {
			continue
		}
		load := d.Load(id)
		m0 := d.GateDelayAt(id, load)

		consider := func(mv engine.Move, dNew float64) {
			if blocked[keyOf(mv)] {
				return
			}
			dMetric := dNew - m0
			if dMetric > safety*slack[id]-slackEps {
				return
			}
			moves = append(moves, mv)
			cands = append(cands, statCand{mv: mv, dMetric: math.Max(dMetric, 0)})
		}

		if o.EnableVth && d.Vth[id] == tech.LowVth {
			if mv, err := engine.NewVthSwap(d, id, tech.HighVth); err == nil {
				consider(mv, d.Lib.Delay(g.Type, tech.HighVth, d.Size[id], load))
			}
		}
		if o.EnableSizing {
			if mv, ok := engine.NewDownsize(d, id); ok {
				consider(mv, d.Lib.Delay(g.Type, d.Vth[id], d.Lib.Sizes[mv.ToIdx], load))
			}
		}
	}
	if len(moves) == 0 {
		return nil, nil
	}
	scores, err := e.ScoreAllLocalCtx(ctx, moves)
	if err != nil {
		return nil, err
	}
	out := cands[:0]
	for i, sc := range scores {
		dq := -sc.DLeakQNW // reduction of the objective percentile
		if dq <= 0 {
			continue
		}
		c := cands[i]
		c.score = dq / math.Max(c.dMetric, 1e-6)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].score > out[j].score })
	return out, nil
}

// statCriticalPath walks back from the statistically worst primary
// output along the fanin with the largest mean+κσ arrival.
func statCriticalPath(d *core.Design, sr *ssta.Result, kappa float64) []int {
	metric := func(id int) float64 {
		a := sr.Arrival(id)
		return a.Mean + kappa*a.Sigma()
	}
	// Worst endpoint: primary outputs, or flip-flop captures (data-pin
	// metric plus setup).
	setup := d.Lib.P.DffSetupPs
	worst := d.Circuit.Outputs()[0]
	worstM := metric(worst)
	for _, o := range d.Circuit.Outputs()[1:] {
		if m := metric(o); m > worstM {
			worst, worstM = o, m
		}
	}
	for _, f := range d.Circuit.Dffs() {
		if m := metric(d.Circuit.Gate(f).Fanin[0]) + setup; m > worstM {
			worst, worstM = f, m
		}
	}
	var rev []int
	id := worst
	for first := true; ; first = false {
		rev = append(rev, id)
		g := d.Circuit.Gate(id)
		if len(g.Fanin) == 0 || (g.Type == logic.Dff && !first) {
			break // launch point (PI or flip-flop Q)
		}
		best := g.Fanin[0]
		for _, f := range g.Fanin[1:] {
			if metric(f) > metric(best) {
				best = f
			}
		}
		id = best
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// finishStat fills the end-state metrics. Under a scenario matrix it
// also recomputes the per-corner scoreboard with fresh analyses from
// fam and overrides the headline yield/leakage with the family
// aggregates (min-over-corners yield, matrix-aggregated leakage
// percentile); fam is read only then.
func finishStat(ctx context.Context, d *core.Design, fam *engine.Family, o Options, res *StatResult, start time.Time) (*StatResult, error) {
	sr, err := ssta.Analyze(d)
	if err != nil {
		return nil, err
	}
	an, err := leakage.Exact(d)
	if err != nil {
		return nil, err
	}
	res.YieldAtTmax = sr.Yield(o.TmaxPs)
	res.Feasible = res.YieldAtTmax >= o.YieldTarget
	res.DelayMeanPs = sr.Delay.Mean
	res.DelaySigmaPs = sr.Delay.Sigma()
	res.LeakMeanNW = an.MeanNW
	res.LeakPctNW = an.Quantile(o.LeakPercentile)
	res.NominalDelayPs = sr.Delay.Mean
	res.NominalLeakNW = d.TotalLeak()
	if o.Scenario != nil {
		cms, err := fam.CornerScoreboard()
		if err != nil {
			return nil, err
		}
		res.Corners = cms
		per := make([]float64, len(cms))
		minYield := cms[0].YieldAtTmax
		for i, cm := range cms {
			per[i] = cm.LeakPctNW
			if cm.YieldAtTmax < minYield {
				minYield = cm.YieldAtTmax
			}
		}
		res.YieldAtTmax = minYield
		res.Feasible = minYield >= o.YieldTarget
		res.LeakPctNW = fam.Aggregate(per)
	}
	if iv := o.ISVerify; iv != nil && o.Scenario == nil {
		seed := iv.Seed
		if seed == 0 {
			seed = 1
		}
		est, _, err := yield.AdaptiveTimingIS(ctx, d,
			montecarlo.Config{Seed: seed, MixtureLambda: iv.MixtureLambda},
			o.TmaxPs,
			yield.ISBudget{
				Initial:      iv.InitialSamples,
				Max:          iv.MaxSamples,
				RelErrTarget: iv.RelErrTarget,
			})
		if err != nil {
			return nil, err
		}
		res.ISYield = &est
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// EvaluateStatistical computes the StatResult metrics for an already-
// optimized (or unoptimized) design without changing it — used to put
// the deterministic baseline on the same statistical scoreboard. With
// Options.Scenario set the scoreboard is corner-aggregated the same
// way an optimizing run's would be.
func EvaluateStatistical(d *core.Design, o Options) (*StatResult, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use EvaluateStatisticalCtx
	return EvaluateStatisticalCtx(context.Background(), d, o)
}

// EvaluateStatisticalCtx is EvaluateStatistical under a caller
// context; the deadline bounds the optional ISVerify sampling pass.
func EvaluateStatisticalCtx(ctx context.Context, d *core.Design, o Options) (*StatResult, error) {
	res := &StatResult{}
	var fam *engine.Family
	if o.Scenario != nil {
		var err error
		fam, err = engine.NewFamily(d, engineConfig(o), o.Scenario)
		if err != nil {
			return nil, err
		}
	}
	return finishStat(ctx, d, fam, o, res, time.Now())
}
