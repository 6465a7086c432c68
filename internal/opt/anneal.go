package opt

import (
	"context"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/search"
	"repro/internal/tech"
)

// AnnealConfig tunes the simulated-annealing optimizer. Annealing is
// not the paper's algorithm — it is the classic global-search
// comparison point (ablation A4) used to judge how close the greedy
// sensitivity heuristic gets to a slower, assumption-free search.
type AnnealConfig struct {
	Moves     int     // total proposed moves
	StartTemp float64 // initial temperature, as a fraction of the initial objective
	EndTemp   float64 // final temperature fraction
	Seed      int64
	// YieldPenalty scales the constraint-violation term: objective =
	// q_pct(leak) · (1 + YieldPenalty·max(0, η−yield)).
	YieldPenalty float64
}

// DefaultAnnealConfig returns a schedule sized for the ablation
// circuits (a few hundred gates).
func DefaultAnnealConfig() AnnealConfig {
	return AnnealConfig{
		Moves:        20000,
		StartTemp:    0.05,
		EndTemp:      0.0005,
		Seed:         1,
		YieldPenalty: 200,
	}
}

// Anneal runs simulated annealing over the (Vth, size) assignment,
// minimizing the objective leakage percentile with a smooth penalty
// for missing the timing-yield target. Every proposed state is
// evaluated through the engine — cone-local incremental re-timing with
// a periodic full refresh — so the walk costs O(cone) per move instead
// of a full SSTA; the final state is the best feasible one seen. The
// trajectory is deterministic per seed.
func Anneal(d *core.Design, o Options, cfg AnnealConfig) (*StatResult, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use AnnealCtx
	return AnnealCtx(context.Background(), d, o, cfg)
}

// AnnealCtx is Anneal with cancellation: the walk checks ctx once per
// proposed move and returns ctx.Err(), leaving the design in the last
// consistent (fully applied or fully reverted) state.
func AnnealCtx(ctx context.Context, d *core.Design, o Options, cfg AnnealConfig) (*StatResult, error) {
	start := time.Now()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &StatResult{}

	e, err := engine.NewFamily(d, engineConfig(o), o.Scenario)
	if err != nil {
		return nil, err
	}
	evalObjective := func() (obj, yield, q float64, err error) {
		yield, err = e.Yield()
		if err != nil {
			return 0, 0, 0, err
		}
		q, err = e.LeakQuantile(o.LeakPercentile)
		if err != nil {
			return 0, 0, 0, err
		}
		obj = q * (1 + cfg.YieldPenalty*math.Max(0, o.YieldTarget-yield))
		return obj, yield, q, nil
	}

	var gates []int
	for _, g := range d.Circuit.Gates() {
		if g.Type.Arity() > 0 || g.Type.Sequential() {
			gates = append(gates, g.ID)
		}
	}

	cur, yield, q, err := evalObjective()
	if err != nil {
		return nil, err
	}
	bestFeasible := math.Inf(1)
	var bestState *core.Design
	if yield >= o.YieldTarget {
		bestFeasible = q
		bestState = d.Clone()
	}
	t0 := cfg.StartTemp * cur
	t1 := cfg.EndTemp * cur
	if t1 <= 0 {
		t1 = 1e-12
	}

	// The walk as a first-accept policy: one random move per round, the
	// Metropolis criterion as the verification predicate. The RNG draw
	// order (gate, move type, direction, acceptance coin — the coin only
	// when the candidate is uphill) fixes the trajectory per seed.
	m := -1
	var temp float64
	var cand, candYield, candQ float64
	tally, err := search.Run(ctx, e, search.Policy{
		Optimizer: "anneal",
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			m++
			if m >= cfg.Moves {
				return nil, nil
			}
			temp = t0 * math.Pow(t1/t0, float64(m)/float64(cfg.Moves))
			id := gates[rng.Intn(len(gates))]
			d := e.Design()

			// Flip Vth, or step the size one notch either way.
			var mv engine.Move
			switch {
			case o.EnableVth && (!o.EnableSizing || rng.Intn(2) == 0):
				next := tech.LowVth
				if d.Vth[id] == tech.LowVth {
					next = tech.HighVth
				}
				swap, err := engine.NewVthSwap(d, id, next)
				if err != nil {
					return nil, err
				}
				mv = swap
			default:
				si := d.SizeIndex(id)
				up := true
				if si == 0 {
					up = true
				} else if si == len(d.Lib.Sizes)-1 {
					up = false
				} else if rng.Intn(2) == 0 {
					up = false
				}
				var ok bool
				var rz engine.Resize
				if up {
					rz, ok = engine.NewUpsize(d, id)
				} else {
					rz, ok = engine.NewDownsize(d, id)
				}
				if !ok {
					return &search.Round{}, nil // single-size ladder: no size move exists
				}
				mv = rz
			}
			return &search.Round{Moves: []engine.Move{mv}}, nil
		},
		Verify: func() (bool, error) {
			var err error
			cand, candYield, candQ, err = evalObjective()
			if err != nil {
				return false, err
			}
			return cand <= cur || rng.Float64() < math.Exp((cur-cand)/temp), nil
		},
		Accepted: func(mv engine.Move, t *search.Tally) error {
			cur = cand
			if candYield >= o.YieldTarget && candQ < bestFeasible {
				bestFeasible = candQ
				bestState = d.Clone()
			}
			if t.Moves%256 == 0 {
				o.report(Progress{Optimizer: "anneal", Phase: "walk", Moves: t.Moves, Round: t.Rounds, LeakQNW: candQ, Yield: candYield})
			}
			return nil
		},
	})
	addTally(&res.Result, tally)
	if err != nil {
		return nil, err
	}
	if bestState != nil {
		d.CopyAssignmentFrom(bestState)
	}
	e.Refresh() // finishStat reads the restored design from the caches
	return finishStat(ctx, d, e, o, res, start)
}
