package opt

import (
	"context"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/search"
	"repro/internal/ssta"
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

// Statistical runs the paper's optimizer. Phase A (upsize, on the
// SSTA view) upsizes statistically critical gates until the SSTA
// timing yield at Tmax reaches the target η. Phase B greedily applies
// the leakage-recovery move with the best reduction of the objective
// leakage percentile per unit of statistical timing metric consumed,
// batch-accepting against per-gate statistical slacks and verifying
// each batch with the incrementally maintained SSTA (peeling back just
// enough moves to restore feasibility). One engine family carries the
// timing/leakage caches across the whole margin sweep.
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

	var best *core.Design // the incumbent: the best margin's assignment
	bestQ := math.Inf(1)

	margins := phaseAMargins
	if !o.EnableSizing {
		margins = margins[:1]
	}
	sc := newStatScan(e, o)
	view := sstaView(e, o)
	for _, m := range margins {
		if o.EnableSizing {
			if _, err := upsize(ctx, e, view, o.TmaxPs*m, o, &res.Result); err != nil {
				return nil, err
			}
		}
		q, err := e.DelayQuantile(o.YieldTarget)
		if err != nil {
			return nil, err
		}
		if q > o.TmaxPs {
			break // the real yield constraint is out of reach
		}
		if err := statPhaseB(ctx, e, o, sc, res); err != nil {
			return nil, err
		}
		q, err = e.ExactLeakQuantile(o.LeakPercentile)
		if err != nil {
			return nil, err
		}
		if q < bestQ {
			bestQ = q
			best = keepAssignment(best, d)
		}
	}
	if best != nil {
		d.CopyAssignmentFrom(best)
	}
	// The restore bypassed the caches, and incremental updates leave
	// timing rows within their cut-off of a fresh analysis: re-time them
	// so finishStat reads the returned design's exact end state.
	e.Refresh()
	return finishStat(ctx, d, e, o, res, start)
}

// keepAssignment copies d's assignment into the incumbent buffer buf
// and returns it, cloning d when there is no buffer yet: one design
// buffer serves a whole run.
func keepAssignment(buf, d *core.Design) *core.Design {
	if buf == nil {
		return d.Clone()
	}
	buf.CopyAssignmentFrom(d)
	return buf
}

// statPhaseB drains yield-feasible leakage-recovery moves, batch-
// accepting against per-gate statistical slacks and peeling a batch
// back until the incremental SSTA verifies it. Timing is maintained
// incrementally — only the fanout cones of moved gates are re-timed —
// and candidates are scored read-only against the leakage
// accumulator, which is what keeps large-circuit optimization in
// seconds. The scan sc is the run's; each phase B starts with no move
// blocked.
func statPhaseB(ctx context.Context, e *engine.Family, o Options, sc *statScan, res *StatResult) error {
	d := e.Design()
	maxMoves := o.moveCap(d)
	clear(sc.blocked)
	// Batch size: enough to amortize the slack refresh, small enough
	// that per-gate slack bookkeeping stays honest.
	batchCap := d.Circuit.NumGates() / 64
	if batchCap < 4 {
		batchCap = 4
	}
	const safety = 0.8 // fraction of a gate's statistical slack a batch may consume
	budget := make(map[int]float64, batchCap)

	base := res.Moves // accumulated across the margin sweep
	tally, err := search.Run(ctx, e, search.Policy{
		Optimizer: "statistical",
		Propose: func(ctx context.Context, t *search.Tally) (*search.Round, error) {
			if base+t.Moves >= maxMoves {
				return nil, nil
			}
			cands, err := sc.candidates(ctx, safety)
			if err != nil || len(cands) == 0 {
				return nil, err
			}

			// Select greedily against a consumable per-gate slack budget.
			clear(budget)
			selected := sc.round.Moves[:0]
			for _, cand := range cands {
				if len(selected) >= batchCap || base+t.Moves+len(selected) >= maxMoves {
					break
				}
				id := cand.mv.Gate()
				b, seen := budget[id]
				if !seen {
					b = safety * sc.slack[id]
				}
				if cand.dMetric > b-slackEps {
					continue
				}
				budget[id] = b - cand.dMetric
				selected = append(selected, cand.mv)
			}
			sc.round = search.Round{Moves: selected, Mode: search.Batch}
			if len(selected) == 0 {
				return nil, nil
			}
			return &sc.round, nil
		},
		Verify: func() (bool, error) {
			y, err := e.Yield()
			if err != nil {
				return false, err
			}
			return y >= o.YieldTarget, nil
		},
		Rejected: sc.blocked.add,
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
			cands, err := sc.candidates(ctx, 1.0)
			if err != nil || len(cands) == 0 {
				return nil, err
			}
			moves := sc.round.Moves[:0]
			for _, cand := range cands {
				moves = append(moves, cand.mv)
			}
			sc.round = search.Round{Moves: moves}
			return &sc.round, nil
		},
		Verify: func() (bool, error) {
			y, err := e.Yield()
			if err != nil {
				return false, err
			}
			yield = y
			return y >= o.YieldTarget, nil
		},
		Rejected: sc.blocked.add,
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

// byScoreDesc orders candidates best score first: a sorts before b
// iff a.score > b.score, the comparison the pinned trajectories were
// recorded with under sort.Slice. slices.SortFunc runs the same
// pdqsort on the same comparisons, so ties keep their order
// (TestSortFuncMatchesSortSlice).
func byScoreDesc(a, b statCand) int {
	switch {
	case a.score > b.score:
		return -1
	case b.score > a.score:
		return 1
	}
	return 0
}

// statScan is phase B's candidate scan. It keeps every buffer a round
// needs across rounds, and across the margin sweep — the slack, score,
// candidate and scored-move slices and the round it proposes — plus
// one boxed move per gate and family, reused while the gate's From
// state still matches, and the dense set of blocked moves. A gate
// offers at most two moves, so the candidate-sized buffers are made
// once at twice the gate count and a round allocates nothing.
type statScan struct {
	e       *engine.Family
	o       Options
	blocked moveSet

	slack  []float64
	scores []float64 // objective-percentile deltas [nW]
	cands  []statCand
	moves  []engine.Move // the candidates' moves, as scored
	round  search.Round  // the moves a round proposes

	swaps, downs []engine.Move // per gate: LVT→HVT swap, one-step downsize
}

func newStatScan(e *engine.Family, o Options) *statScan {
	d := e.Design()
	n := d.Circuit.NumNodes()
	m := 2 * d.Circuit.NumGates() // a swap and a downsize per gate
	return &statScan{e: e, o: o, blocked: newMoveSet(d),
		scores: make([]float64, 0, m),
		cands:  make([]statCand, 0, m),
		moves:  make([]engine.Move, 0, m),
		round:  search.Round{Moves: make([]engine.Move, 0, m)},
		swaps:  make([]engine.Move, n), downs: make([]engine.Move, n)}
}

// candidates refreshes the statistical slack and scores every feasible
// phase-B move by its reduction of the objective leakage percentile
// per unit of mean-delay slack consumed, returning them best first.
// The per-move delay effect is the local cell-delay change (a phase-B
// move never changes the gate's own load), so candidates prefilter
// analytically and the leakage-percentile deltas come from the
// engine's read-only local scorer. Mean delay is the right currency
// against StatisticalSlack's sigma-adjusted budget; the move's (small)
// effect on the circuit sigma is caught by the incremental-SSTA
// verification. Loads and delays are the base design's: under a
// scenario spec, corner 0 may be a view with its own library. The
// returned slice, and sc.slack, are valid until the next call.
func (sc *statScan) candidates(ctx context.Context, safety float64) ([]statCand, error) {
	e, o := sc.e, sc.o
	d := e.Design()
	var err error
	if sc.slack, err = e.StatisticalSlack(sc.slack); err != nil {
		return nil, err
	}
	slack := sc.slack
	sc.cands, sc.moves = sc.cands[:0], sc.moves[:0]
	consider := func(mv engine.Move, id int, dMetric float64) {
		if sc.blocked.has(mv) || dMetric > safety*slack[id]-slackEps {
			return
		}
		sc.moves = append(sc.moves, mv)
		sc.cands = append(sc.cands, statCand{mv: mv, dMetric: math.Max(dMetric, 0)})
	}
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		id := g.ID
		if slack[id] <= slackEps {
			continue
		}
		load, m0 := e.LoadDelay(id)
		if o.EnableVth && d.Vth[id] == tech.LowVth {
			if sw, ok := sc.swaps[id].(engine.VthSwap); !ok || sw.From != d.Vth[id] {
				if sw, err = engine.NewVthSwap(d, id, tech.HighVth); err != nil {
					return nil, err
				}
				sc.swaps[id] = sw
			}
			consider(sc.swaps[id], id, d.Lib.Delay(g.Type, tech.HighVth, d.Size[id], load)-m0)
		}
		if si := d.SizeIndex(id); o.EnableSizing && si > 0 {
			if rs, ok := sc.downs[id].(engine.Resize); !ok || rs.FromIdx != si {
				rs, _ = engine.NewDownsize(d, id) // si > 0
				sc.downs[id] = rs
			}
			consider(sc.downs[id], id, d.Lib.Delay(g.Type, d.Vth[id], d.Lib.Sizes[si-1], load)-m0)
		}
	}
	if len(sc.moves) == 0 {
		return nil, nil
	}
	if sc.scores, err = e.ScoreAllLocalCtx(ctx, sc.moves, sc.scores); err != nil {
		return nil, err
	}
	out := sc.cands[:0]
	for i, d := range sc.scores {
		dq := -d // reduction of the objective percentile
		if dq <= 0 {
			continue
		}
		c := sc.cands[i]
		c.score = dq / math.Max(c.dMetric, 1e-6)
		out = append(out, c)
	}
	slices.SortFunc(out, byScoreDesc)
	return out, nil
}

// statCriticalPath walks back from the statistically worst primary
// output along the fanin with the largest mean+κσ arrival. It writes
// the path, launch point first, into dst[:0] and returns it.
func statCriticalPath(d *core.Design, sr *ssta.Result, kappa float64, dst []int) []int {
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
	rev := dst[:0]
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

// finishStat fills the end-state metrics of d. The SSTA and exact
// leakage analyses of d come from fam's primary-corner caches when that
// corner evaluates d itself (the caller refreshed fam after its last
// direct change of the assignment, so they are bitwise fresh analyses),
// and are computed fresh otherwise: with no family (EvaluateStatistical
// on one corner) and when a scenario spec's first corner is a view.
// Under a scenario spec it also recomputes the per-corner scoreboard
// with fresh analyses from fam and overrides the headline yield/leakage
// with the family aggregates (min-over-corners yield, corner-aggregated
// leakage percentile).
func finishStat(ctx context.Context, d *core.Design, fam *engine.Family, o Options, res *StatResult, start time.Time) (*StatResult, error) {
	sr, an, err := endAnalyses(d, fam)
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

// endAnalyses returns d's statistical timing view and exact leakage
// analysis: from fam's primary-corner caches where fam evaluates d
// there, fresh otherwise.
func endAnalyses(d *core.Design, fam *engine.Family) (*ssta.Result, *leakage.Analysis, error) {
	if fam != nil {
		if sr, an, ok, err := fam.BaseAnalyses(); ok || err != nil {
			return sr, an, err
		}
	}
	sr, err := ssta.Analyze(d)
	if err != nil {
		return nil, nil, err
	}
	an, err := leakage.Exact(d)
	if err != nil {
		return nil, nil, err
	}
	return sr, an, nil
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
