package engine

import (
	"context"

	"repro/internal/stats"
)

// Score reports a candidate move's effect on the engine's objectives,
// as exact scoring (ScoreAll) measures it. Deltas are after − before:
// a leakage-recovery move has negative DLeakQNW; a move that slows the
// circuit has negative DMarginPs.
type Score struct {
	// DLeakQNW is the change of the objective leakage percentile [nW]
	// (factored accumulator).
	DLeakQNW float64
	// DMarginPs is the change of the yield margin Tmax − q_eta(delay)
	// [ps], from re-timing the move's fanout cone.
	DMarginPs float64
	// DOwnPs is the change of the gate's own delay [ps].
	DOwnPs float64
	// DLeakNomNW is the change of the gate's nominal leakage [nW].
	DLeakNomNW float64
}

// exactScorer applies, measures and reverts moves on a scratch
// engine, with the baseline quantities captured once per round.
type exactScorer struct {
	e           *Engine
	q0, margin0 float64 // baseline leakage percentile and yield margin
}

// scratch returns a throwaway copy of the engine for exact scoring: a
// clone of the design with both caches cloned onto it. Moves applied to
// the copy never reach the engine or the assignment arrays it may
// share with sibling corners.
func (e *Engine) scratch() (*Engine, error) {
	if err := e.ensureAcc(); err != nil {
		return nil, err
	}
	if err := e.ensureTiming(); err != nil {
		return nil, err
	}
	d := e.d.Clone()
	return &Engine{d: d, cfg: e.cfg, dLc: e.dLc, dVc: e.dVc,
		acc: e.acc.CloneFor(d), inc: e.inc.CloneFor(d)}, nil
}

func (e *Engine) newExactScorer() exactScorer {
	return exactScorer{
		e:       e,
		q0:      e.acc.Quantile(e.cfg.LeakPercentile),
		margin0: e.cfg.TmaxPs - e.inc.Result().Quantile(e.cfg.YieldTarget),
	}
}

// score evaluates one move and reverts it. The apply/revert pair
// cancels in the factored leakage sums and the re-timed cone converges
// back, up to floating-point drift that stays on the scratch engine.
func (c exactScorer) score(m Move) (Score, error) {
	metScored.Inc()
	e, id := c.e, m.Gate()
	own0 := e.d.GateDelay(id)
	nom0 := e.d.GateLeak(id)
	if err := m.Apply(e.d); err != nil {
		return Score{}, err
	}
	e.acc.Update(id)
	e.inc.Update(id)
	s := Score{
		DLeakQNW:   e.acc.Quantile(e.cfg.LeakPercentile) - c.q0,
		DMarginPs:  (e.cfg.TmaxPs - e.inc.Result().Quantile(e.cfg.YieldTarget)) - c.margin0,
		DOwnPs:     e.d.GateDelay(id) - own0,
		DLeakNomNW: e.d.GateLeak(id) - nom0,
	}
	if err := m.Revert(e.d); err != nil {
		return Score{}, err
	}
	e.acc.Update(id)
	e.inc.Update(id)
	return s, nil
}

// ScoreAll scores independent candidate moves exactly — cone-local
// re-timing plus an O(k²) leakage update per move — one after another
// on one scratch copy of the engine. Results are index-aligned with
// moves. The engine itself is never written; within the sweep each
// move sees the drift its predecessors' apply/revert pairs left on the
// copy.
func (e *Engine) ScoreAll(moves []Move) ([]Score, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use ScoreAllCtx
	return e.ScoreAllCtx(context.Background(), moves)
}

// ScoreAllCtx is ScoreAll with cancellation: ctx is checked before
// every move, so a cancelled optimization stops scoring within one
// move. On cancellation the partial scores are discarded and
// ctx.Err() is returned.
func (e *Engine) ScoreAllCtx(ctx context.Context, moves []Move) ([]Score, error) {
	s, err := e.scratch()
	if err != nil {
		return nil, err
	}
	return scoreEach(ctx, moves, s.newExactScorer().score, nil)
}

// localScorer evaluates moves read-only against the engine's design,
// library and leakage accumulator, with the baseline quantile and the
// hoisted standard-normal quantile captured once per round.
type localScorer struct {
	e     *Engine
	z, q0 float64
}

func (e *Engine) beginLocal() (localScorer, error) {
	if err := e.ensureAcc(); err != nil {
		return localScorer{}, err
	}
	p := e.cfg.LeakPercentile
	return localScorer{e: e, z: stats.NormalQuantile(p), q0: e.acc.Quantile(p)}, nil
}

// score checks the move's precondition as Apply does (a stale move
// errors), evaluates the gate's leakage at the move's target
// assignment, and returns the change of the objective leakage
// percentile [nW] the accumulator would report after the move. Nothing
// observable is written, and each delta is bitwise what applying the
// move to a fresh clone of the engine, updating the clone's
// accumulator and reading its quantile would give.
func (c localScorer) score(m Move) (float64, error) {
	metScored.Inc()
	d, id := c.e.d, m.Gate()
	vth, size, err := m.target(d)
	if err != nil {
		return 0, err
	}
	sub, gate := d.GateLeakAs(id, vth, size)
	return c.e.acc.QuantileIf(id, sub, gate, c.z) - c.q0, nil
}

// ScoreAllLocalCtx scores independent candidate moves by the exact
// change of the objective leakage percentile [nW] alone, with no
// timing: the cheap prefilter the statistical optimizer ranks
// candidates with against its own slack budget; the authoritative
// yield check stays with Apply + Yield. Beyond building the leakage
// cache when it is not live, it reads the engine's state and writes
// none; ctx is checked as in ScoreAllCtx. The deltas are written into
// dst, which is reallocated only when its capacity is short, so a
// caller scanning every round can reuse one buffer.
func (e *Engine) ScoreAllLocalCtx(ctx context.Context, moves []Move, dst []float64) ([]float64, error) {
	sc, err := e.beginLocal()
	if err != nil {
		return nil, err
	}
	return scoreEach(ctx, moves, sc.score, dst)
}

// sized returns dst with length n, reallocating only when its
// capacity is short.
func sized[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// scoreEach scores moves in order into dst, checking ctx before each
// one.
func scoreEach[T any](ctx context.Context, moves []Move, score func(Move) (T, error), dst []T) ([]T, error) {
	if len(moves) == 0 {
		return nil, nil
	}
	out := sized(dst, len(moves))
	for i, m := range moves {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := score(m)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
