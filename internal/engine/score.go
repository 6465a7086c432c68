package engine

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/ssta"
)

// Score reports a candidate move's effect on the engine's objectives.
// Deltas are after − before: a leakage-recovery move has negative
// DLeakQNW; a move that slows the circuit has negative DMarginPs.
type Score struct {
	// DLeakQNW is the change of the objective leakage percentile [nW]
	// (factored accumulator).
	DLeakQNW float64
	// DMarginPs is the change of the yield margin Tmax − q_eta(delay)
	// [ps]. Exact scoring re-times the move's fanout cone; local
	// scoring substitutes the first-order surrogate −DOwnPs (a
	// phase-B move can delay the circuit at most by its own delay
	// change).
	DMarginPs float64
	// DOwnPs is the change of the gate's own delay [ps].
	DOwnPs float64
	// DLeakNomNW is the change of the gate's nominal leakage [nW].
	DLeakNomNW float64
}

// scoreCtx is the thin evaluation context a scorer works on: a design
// plus the leakage accumulator and (for exact scoring) an incremental
// timer, with the baseline quantities captured once at construction.
type scoreCtx struct {
	d   *core.Design
	acc *leakage.Accumulator
	inc *ssta.Incremental // nil ⇒ local timing surrogate

	tmax, eta, p float64
	q0           float64 // baseline leakage percentile
	margin0      float64 // baseline yield margin (exact mode)
}

func (e *Engine) newScoreCtx(d *core.Design, acc *leakage.Accumulator, inc *ssta.Incremental) *scoreCtx {
	c := &scoreCtx{
		d: d, acc: acc, inc: inc,
		tmax: e.cfg.TmaxPs, eta: e.cfg.YieldTarget, p: e.cfg.LeakPercentile,
	}
	c.q0 = acc.Quantile(c.p)
	if inc != nil {
		c.margin0 = c.tmax - inc.Result().Quantile(c.eta)
	}
	return c
}

// score evaluates one move and restores the context's state before
// returning — net-zero by construction: the apply/revert pair cancels
// in the factored leakage sums and the re-timed cone converges back.
func (c *scoreCtx) score(m Move) (Score, error) {
	metScored.Inc()
	id := m.Gate()
	own0 := c.d.GateDelay(id)
	nom0 := c.d.GateLeak(id)
	if err := m.Apply(c.d); err != nil {
		return Score{}, err
	}
	c.acc.Update(id)
	if c.inc != nil {
		c.inc.Update(id)
	}
	s := Score{
		DLeakQNW:   c.acc.Quantile(c.p) - c.q0,
		DOwnPs:     c.d.GateDelay(id) - own0,
		DLeakNomNW: c.d.GateLeak(id) - nom0,
	}
	if c.inc != nil {
		s.DMarginPs = (c.tmax - c.inc.Result().Quantile(c.eta)) - c.margin0
	} else {
		s.DMarginPs = -s.DOwnPs
	}
	if err := m.Revert(c.d); err != nil {
		return Score{}, err
	}
	c.acc.Update(id)
	if c.inc != nil {
		c.inc.Update(id)
	}
	return s, nil
}

// Score evaluates one move exactly — cone-local re-timing plus an
// O(k²) leakage update — without changing the engine's observable
// state. The caches are journaled for the call's duration and
// restored bitwise: scoring is net-zero not just within tolerance but
// bit for bit, so a scored-but-unapplied engine is identical to an
// untouched one.
func (e *Engine) Score(m Move) (Score, error) {
	if err := e.ensureAcc(); err != nil {
		return Score{}, err
	}
	if err := e.ensureTiming(); err != nil {
		return Score{}, err
	}
	e.acc.StartJournal()
	e.inc.StartJournal()
	defer func() {
		e.acc.RestoreJournal()
		e.inc.RestoreJournal()
	}()
	return e.newScoreCtx(e.d, e.acc, e.inc).score(m)
}

// ScoreLocal evaluates one move with the exact leakage-percentile
// delta but the first-order timing surrogate (own-delay change only),
// skipping cone re-timing. This is the cheap prefilter the batch
// optimizers rank candidates with; the authoritative yield check stays
// with Apply + Yield. Like Score, the accumulator is journaled and
// restored bitwise.
func (e *Engine) ScoreLocal(m Move) (Score, error) {
	if err := e.ensureAcc(); err != nil {
		return Score{}, err
	}
	e.acc.StartJournal()
	defer e.acc.RestoreJournal()
	return e.newScoreCtx(e.d, e.acc, nil).score(m)
}

// ScoreAll evaluates independent candidate moves in parallel with
// exact scoring. Results are index-aligned with moves. Workers operate
// on persistent per-slot evaluation contexts that are resynced to the
// engine's state by replaying committed moves (see worker.go) and
// journal-restored when the call ends, so the engine's state is
// untouched and the call is race-free; determinism is preserved by
// chunked partitioning (no work stealing) — every worker scores a
// contiguous, input-ordered span from the same baseline state.
func (e *Engine) ScoreAll(moves []Move) ([]Score, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use ScoreAllCtx
	return e.ScoreAllCtx(context.Background(), moves)
}

// ScoreAllCtx is ScoreAll with cancellation: every worker checks ctx
// between moves, so a cancelled optimization stops scoring within one
// move instead of finishing the fan-out. On cancellation the partial
// scores are discarded and ctx.Err() is returned.
func (e *Engine) ScoreAllCtx(ctx context.Context, moves []Move) ([]Score, error) {
	if err := e.ensureAcc(); err != nil {
		return nil, err
	}
	if err := e.ensureTiming(); err != nil {
		return nil, err
	}
	return e.scoreAll(ctx, moves, true)
}

// ScoreAllLocal is ScoreAll with the local timing surrogate — the
// parallel form of ScoreLocal.
func (e *Engine) ScoreAllLocal(moves []Move) ([]Score, error) {
	//lint:ignore ctxflow uncancellable compatibility wrapper; callers needing deadlines use ScoreAllLocalCtx
	return e.ScoreAllLocalCtx(context.Background(), moves)
}

// ScoreAllLocalCtx is ScoreAllLocal with cancellation (see
// ScoreAllCtx).
func (e *Engine) ScoreAllLocalCtx(ctx context.Context, moves []Move) ([]Score, error) {
	if err := e.ensureAcc(); err != nil {
		return nil, err
	}
	return e.scoreAll(ctx, moves, false)
}

func (e *Engine) scoreAll(ctx context.Context, moves []Move, exact bool) ([]Score, error) {
	if len(moves) == 0 {
		return nil, nil
	}
	workers := e.cfg.Workers
	if workers > len(moves) {
		workers = len(moves)
	}
	out := make([]Score, len(moves))
	if workers <= 1 {
		// The serial scorer works directly on the engine's own caches.
		// Journaling the round and restoring at the end returns them
		// bitwise to the pre-round state — the same contract the
		// parallel workers honor — so a scoring sweep leaves no
		// floating-point residue on the engine.
		var inc *ssta.Incremental
		if exact {
			inc = e.inc
		}
		e.acc.StartJournal()
		if inc != nil {
			inc.StartJournal()
		}
		defer func() {
			e.acc.RestoreJournal()
			if inc != nil {
				inc.RestoreJournal()
			}
		}()
		sc := e.newScoreCtx(e.d, e.acc, inc)
		for i, m := range moves {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s, err := sc.score(m)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	if err := e.syncWorkers(workers, exact); err != nil {
		return nil, err
	}
	errs := make([]error, workers)
	chunk := (len(moves) + workers - 1) / workers
	var wg sync.WaitGroup
	used := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(moves) {
			hi = len(moves)
		}
		if lo >= hi {
			break
		}
		wc := e.workers[w]
		wc.acc.StartJournal()
		var inc *ssta.Incremental
		if exact {
			inc = wc.inc
			inc.StartJournal()
		}
		sc := e.newScoreCtx(wc.d, wc.acc, inc)
		used = w + 1
		wg.Add(1)
		go func(sc *scoreCtx, w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				s, err := sc.score(moves[i])
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = s
			}
		}(sc, w, lo, hi)
	}
	wg.Wait()
	var firstErr error
	for w := 0; w < used; w++ {
		wc := e.workers[w]
		// Restoring the journals puts each worker back bitwise to its
		// pre-round state — exactly what discarding a per-call clone
		// used to do.
		wc.acc.RestoreJournal()
		if exact {
			wc.inc.RestoreJournal()
		}
		if errs[w] != nil {
			// A failed apply/revert may have left the worker's design
			// half-moved; the journals do not cover the design, so force
			// a re-clone before this context scores again.
			wc.dirty = true
			if firstErr == nil {
				firstErr = errs[w]
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
