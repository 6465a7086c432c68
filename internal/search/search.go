// Package search implements the round-based search driver every
// optimizer runs on: one loop owning the generate → score → select →
// commit → verify/repair cycle on top of internal/engine, with the
// optimizer-specific parts — candidate generation, acceptance,
// stopping, repair bookkeeping — supplied as a Policy of plain
// closures.
//
// A round is one Propose call. The driver applies the proposed moves
// through the engine in one of two modes:
//
//   - FirstAccept: candidates are tried in order; the first whose
//     Verify passes is kept and ends the round, the rest are never
//     touched. A failing candidate is reverted and reported to
//     Rejected. This is the classic greedy accept/revert loop (sizing,
//     corner recovery, annealing, polish).
//   - Batch: all candidates are applied, then the batch is repaired
//     by peeling — while Verify fails, the most recent move is
//     reverted and reported to Rejected — and whatever survives is
//     kept. This is the batched top-k commit with peel recovery the
//     statistical optimizer's recovery phase uses, available to every
//     flow.
//
// Undo is the engine's Revert and nothing else: the driver keeps the
// moves a round applied and reverts them newest first, whether it is
// peeling a batch or abandoning a round after an error.
//
// The driver owns the cross-cutting concerns the optimizers used to
// hand-roll: the per-round context check (cancellation lands within
// one move), the proposed/accepted move accounting (exported per
// optimizer at /metrics), round counting, and the move-kind tally.
package search

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Search instrumentation. The proposed/accepted counters keep the
// metric names they had when the optimizers owned them, so existing
// dashboards keep working; rounds and batch sizes are new.
var (
	metProposed = obs.Default.CounterVec("statleak_opt_moves_proposed_total",
		"moves applied speculatively by an optimizer", "optimizer")
	metAccepted = obs.Default.CounterVec("statleak_opt_moves_accepted_total",
		"speculative moves kept after verification", "optimizer")
	metRounds = obs.Default.CounterVec("statleak_search_rounds_total",
		"search rounds driven (one Propose call per round)", "optimizer")
	metBatch = obs.Default.Histogram("statleak_search_batch_size",
		"candidate moves per non-empty search round",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
)

// Mode selects how a round's moves go through the engine.
type Mode int

const (
	// FirstAccept tries candidates in order and keeps the first that
	// verifies; the rest of the round is skipped.
	FirstAccept Mode = iota
	// Batch applies every candidate, then peels from the newest until
	// Verify passes and keeps the rest.
	Batch
)

// Round is one proposal: candidate moves in priority order. An empty
// Round spends a round without touching the engine — a policy uses it
// when its generator came up empty but its stopping rule says keep
// going (e.g. an annealing proposal blocked at a ladder end).
type Round struct {
	Moves []engine.Move
	Mode  Mode
}

// Tally is the driver's running account of a search. Policies read it
// in Propose/Accepted/RoundDone for stopping rules and progress
// reports; the driver owns all writes.
type Tally struct {
	Moves     int // accepted (and kept) moves
	SizeUps   int
	VthSwaps  int
	SizeDowns int

	Rounds int // Propose calls that returned a round
	Peeled int // moves reverted out of Batch rounds during repair
}

func (t *Tally) count(m engine.Move) {
	t.Moves++
	switch m.Kind() {
	case engine.KindVthSwap:
		t.VthSwaps++
	case engine.KindUpsize:
		t.SizeUps++
	default:
		t.SizeDowns++
	}
}

// Policy is an optimizer expressed as the pluggable parts of the round
// loop. Propose and Verify are required; the rest are optional hooks.
type Policy struct {
	// Optimizer labels the flow in metrics and progress reports.
	Optimizer string

	// Propose generates the next round. nil stops the search (the
	// normal, successful exit); an empty Round spends the round and
	// continues.
	Propose func(ctx context.Context, t *Tally) (*Round, error)

	// Verify reports whether the engine's current state is acceptable.
	// In FirstAccept mode it judges the one just-applied candidate; in
	// Batch mode it judges the batch as the peel loop shrinks it.
	Verify func() (bool, error)

	// Accepted runs after a move is kept and tallied — the place for
	// progress reports and incumbent bookkeeping.
	Accepted func(mv engine.Move, t *Tally) error

	// Rejected runs after a failing move is reverted — the place for
	// blacklist bookkeeping.
	Rejected func(mv engine.Move)

	// RoundDone runs after a non-empty round with the number of moves
	// kept; returning stop ends the search. Policies whose generator
	// over-proposes use it to stop on a fully-bounced round.
	RoundDone func(accepted int, t *Tally) (stop bool, err error)
}

// Driver is the mutation surface the search loop drives: a single
// evaluation engine or a corner-indexed scenario family. Everything
// else a policy needs (yield, quantiles, scores) it closes over
// itself, already corner-aggregated by the driver it captured.
type Driver interface {
	Apply(m engine.Move) error
	Revert(m engine.Move) error
}

// Run drives the search loop until Propose returns nil, RoundDone
// stops it, ctx is cancelled, or a step fails. The returned Tally is
// valid (reflecting all kept moves) even when err is non-nil, so
// callers can account for partial progress: a step that fails before
// its round's keep decision first puts the round's moves back.
func Run(ctx context.Context, e Driver, p Policy) (*Tally, error) {
	t := &Tally{}
	if p.Propose == nil || p.Verify == nil {
		return t, fmt.Errorf("search: policy %q needs Propose and Verify", p.Optimizer)
	}
	proposed := metProposed.With(p.Optimizer)
	accepted := metAccepted.With(p.Optimizer)
	rounds := metRounds.With(p.Optimizer)
	for {
		if err := ctx.Err(); err != nil {
			return t, err
		}
		r, err := p.Propose(ctx, t)
		if err != nil {
			return t, err
		}
		if r == nil {
			return t, nil
		}
		t.Rounds++
		rounds.Inc()
		if len(r.Moves) == 0 {
			continue
		}
		metBatch.Observe(float64(len(r.Moves)))
		var kept int
		switch r.Mode {
		case Batch:
			kept, err = runBatch(e, r.Moves, t, p, proposed)
		default:
			kept, err = runFirstAccept(e, r.Moves, t, p, proposed)
		}
		accepted.Add(uint64(kept))
		if err != nil {
			return t, err
		}
		if p.RoundDone != nil {
			stop, err := p.RoundDone(kept, t)
			if err != nil {
				return t, err
			}
			if stop {
				return t, nil
			}
		}
	}
}

// runBatch applies every candidate, peels from the newest until Verify
// passes, and keeps the survivors. A failure before the keep decision
// reverts every applied move; a failing Accepted hook still counts and
// keeps every survivor.
func runBatch(e Driver, moves []engine.Move, t *Tally, p Policy, proposed *obs.Counter) (int, error) {
	applied := make([]engine.Move, 0, len(moves))
	abort := func(err error) (int, error) {
		return 0, errors.Join(err, revertNewestFirst(e, applied))
	}
	for _, mv := range moves {
		if err := e.Apply(mv); err != nil {
			return abort(err)
		}
		applied = append(applied, mv)
		proposed.Inc()
	}
	for len(applied) > 0 {
		ok, err := p.Verify()
		if err != nil {
			return abort(err)
		}
		if ok {
			break
		}
		mv := applied[len(applied)-1]
		if err := e.Revert(mv); err != nil {
			return abort(err)
		}
		applied = applied[:len(applied)-1]
		t.Peeled++
		if p.Rejected != nil {
			p.Rejected(mv)
		}
	}
	var err error
	for _, mv := range applied {
		t.count(mv)
		if p.Accepted != nil && err == nil {
			err = p.Accepted(mv, t)
		}
	}
	return len(applied), err
}

// revertNewestFirst undoes moves in reverse order of application,
// stopping at the first failure.
func revertNewestFirst(e Driver, moves []engine.Move) error {
	for i := len(moves) - 1; i >= 0; i-- {
		if err := e.Revert(moves[i]); err != nil {
			return err
		}
	}
	return nil
}

// runFirstAccept applies candidates in order until one verifies. A
// Verify failure reverts the candidate it was judging.
func runFirstAccept(e Driver, moves []engine.Move, t *Tally, p Policy, proposed *obs.Counter) (int, error) {
	for _, mv := range moves {
		if err := e.Apply(mv); err != nil {
			return 0, err
		}
		proposed.Inc()
		ok, err := p.Verify()
		if err != nil {
			return 0, errors.Join(err, e.Revert(mv))
		}
		if !ok {
			if err := e.Revert(mv); err != nil {
				return 0, err
			}
			if p.Rejected != nil {
				p.Rejected(mv)
			}
			continue
		}
		t.count(mv)
		if p.Accepted != nil {
			if err := p.Accepted(mv, t); err != nil {
				return 1, err
			}
		}
		return 1, nil
	}
	return 0, nil
}
