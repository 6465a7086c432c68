// Package opt contains the optimization algorithms: the deterministic
// dual-Vth + sizing baseline (nominal delay constraint with a designer
// guard band — the approach the paper argues against) and the
// statistical optimizer (the paper's contribution: minimize a high
// percentile of the total-leakage distribution subject to a
// timing-yield constraint evaluated with SSTA).
//
// Both optimizers share a move set over the per-gate assignment:
//
//   - size-up one ladder step (phase A, to meet the delay target),
//   - LVT→HVT swap and size-down one step (phase B, to recover
//     leakage inside the available timing margin).
//
// Phase-B moves only ever slow the gate itself (a size-down even
// speeds up its drivers), so "own delay increase ≤ slack of the gate"
// is an exact feasibility condition under nominal STA, and its
// mean+κσ analogue is the ranking heuristic under SSTA (with a full
// SSTA yield check and rollback as the safety net).
//
// All four optimizers are thin policy configurations of the shared
// round-based search driver (internal/search): each supplies a
// candidate generator, a verification predicate, and blacklist /
// incumbent bookkeeping, while the driver owns the loop — applying
// candidates through the evaluation engine (internal/engine),
// first-accept or batched with peel repair, with cancellation, move
// accounting and metrics handled once for every flow.
//
// Every flow evaluates through an engine.Family built from
// Options.Scenario; nil means the 1×1 nominal spec, whose lone corner
// is the design itself, so the single-corner path and the scenario
// path are one code path. Options.Scenario != nil adds the per-corner
// scoreboard (Result.Corners) and skips ISVerify.
package opt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/search"
)

// Options configures an optimization run.
type Options struct {
	// TmaxPs is the delay constraint [ps] the shipped circuit must
	// meet.
	TmaxPs float64
	// CornerSigma is the deterministic baseline's worst-case corner:
	// it times every gate with the systematic channel-length variation
	// pushed this many sigmas slow (all gates simultaneously — the
	// classic corner-file pessimism). Ignored by Statistical, which
	// constrains the actual timing yield instead.
	CornerSigma float64
	// YieldTarget η is the required P(delay ≤ TmaxPs) for the
	// statistical optimizer. Ignored by Deterministic.
	YieldTarget float64
	// LeakPercentile is the percentile of total leakage the
	// statistical optimizer minimizes (e.g. 0.99).
	LeakPercentile float64
	// EnableVth and EnableSizing select the move set (both true in the
	// headline experiments; the A1 ablation toggles them).
	EnableVth    bool
	EnableSizing bool
	// MaxMoves caps the total number of applied moves (0 ⇒ 10×gates).
	MaxMoves int
	// Scenario, when non-nil, runs the optimizer against the
	// corner-indexed evaluation family over this spec instead of the
	// 1×1 nominal one: verification sees the min-over-corners timing
	// yield and the corner-aggregated leakage objective, and Result
	// carries a per-corner scoreboard.
	Scenario *scenario.Spec
	// Progress, when non-nil, receives point-in-time snapshots at
	// optimizer loop boundaries (at most one per applied batch/move).
	// It is called synchronously from the optimizer goroutine, so it
	// must be cheap and must not call back into the optimizer or the
	// engine; the job server uses it to publish live status.
	Progress func(Progress)
	// ISVerify, when non-nil, re-verifies the statistical optimizer's
	// final design with importance-sampled Monte Carlo (adaptive
	// budget: sample batches double until the failure probability's
	// relative standard error reaches the target) and records the
	// estimate in StatResult.ISYield. It is informational — the SSTA
	// yield still gates feasibility, so enabling it never changes the
	// optimization trajectory — and is skipped under a scenario spec
	// (the per-corner scoreboard already covers that case).
	ISVerify *ISVerifyConfig
}

// ISVerifyConfig tunes the importance-sampled yield verification of
// the statistical optimizer's final design. The zero value of every
// field picks the default.
type ISVerifyConfig struct {
	Seed           int64   // MC seed (0 ⇒ 1)
	InitialSamples int     // first batch size (0 ⇒ 200)
	MaxSamples     int     // total sample cap (0 ⇒ 20000)
	RelErrTarget   float64 // stop when rel. std. error ≤ target (0 ⇒ 0.10)
	MixtureLambda  float64 // defensive nominal-mixture weight λ ∈ [0,1)
}

// Progress is a point-in-time optimizer snapshot for observers.
// Fields an optimizer does not track are zero (e.g. the deterministic
// corner flow reports no yield).
type Progress struct {
	Optimizer string  // "deterministic", "statistical", "anneal", "dual", "min-delay"
	Phase     string  // optimizer-specific phase label, e.g. "sizing", "recovery"
	Moves     int     // applied (and kept) moves so far
	Round     int     // search rounds driven in the current phase
	LeakQNW   float64 // current objective leakage [nW]: percentile for statistical flows, nominal for corner flows; 0 if not tracked
	Yield     float64 // current timing yield at Tmax, 0 if not tracked
}

// report invokes the Progress callback when one is set.
func (o Options) report(ev Progress) {
	if o.Progress != nil {
		o.Progress(ev)
	}
}

// DefaultOptions returns the experiment defaults for a given delay
// constraint: 3σ deterministic corner, 99% yield target,
// 99th-percentile leakage objective, full move set.
func DefaultOptions(tmaxPs float64) Options {
	return Options{
		TmaxPs:         tmaxPs,
		CornerSigma:    3.0,
		YieldTarget:    0.99,
		LeakPercentile: 0.99,
		EnableVth:      true,
		EnableSizing:   true,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	switch {
	case o.TmaxPs <= 0:
		return fmt.Errorf("opt: TmaxPs %g must be > 0", o.TmaxPs)
	case o.CornerSigma < 0 || o.CornerSigma > 6:
		return fmt.Errorf("opt: CornerSigma %g outside [0,6]", o.CornerSigma)
	case o.YieldTarget <= 0 || o.YieldTarget >= 1:
		return fmt.Errorf("opt: YieldTarget %g outside (0,1)", o.YieldTarget)
	case o.LeakPercentile <= 0 || o.LeakPercentile >= 1:
		return fmt.Errorf("opt: LeakPercentile %g outside (0,1)", o.LeakPercentile)
	case !o.EnableVth && !o.EnableSizing:
		return fmt.Errorf("opt: empty move set (enable Vth and/or sizing)")
	case o.MaxMoves < 0:
		return fmt.Errorf("opt: MaxMoves %d must be >= 0", o.MaxMoves)
	}
	if err := o.Scenario.Validate(); err != nil {
		return err
	}
	if iv := o.ISVerify; iv != nil {
		switch {
		case iv.InitialSamples < 0 || iv.MaxSamples < 0:
			return fmt.Errorf("opt: ISVerify sample counts must be >= 0")
		case iv.RelErrTarget < 0 || iv.RelErrTarget >= 1:
			return fmt.Errorf("opt: ISVerify.RelErrTarget %g outside [0,1)", iv.RelErrTarget)
		case iv.MixtureLambda < 0 || iv.MixtureLambda >= 1:
			return fmt.Errorf("opt: ISVerify.MixtureLambda %g outside [0,1)", iv.MixtureLambda)
		}
	}
	return nil
}

// Result reports what an optimizer did. The optimized assignment lives
// in the Design passed to the optimizer (mutated in place).
type Result struct {
	Feasible bool // delay/yield constraint met at exit

	NominalDelayPs float64 // nominal STA delay at exit
	NominalLeakNW  float64 // nominal leakage at exit

	SizeUps   int
	VthSwaps  int
	SizeDowns int
	Moves     int // total applied (and kept) moves

	// Corners holds the per-corner end-state scoreboard when the run
	// evaluated a scenario family (Options.Scenario non-nil).
	Corners []engine.CornerMetrics

	Runtime time.Duration
}

// moveSet is a dense set of (gate, move family) pairs, the blacklist
// the optimizers keep. Within one optimizer each family runs in a
// single direction (e.g. phase B only swaps LVT→HVT, the dual only
// HVT→LVT), so the engine kind disambiguates fully.
type moveSet []bool

const numKinds = int(engine.KindDownsize) + 1

func newMoveSet(d *core.Design) moveSet { return make(moveSet, d.Circuit.NumNodes()*numKinds) }

func (s moveSet) add(m engine.Move)      { s[m.Gate()*numKinds+int(m.Kind())] = true }
func (s moveSet) has(m engine.Move) bool { return s[m.Gate()*numKinds+int(m.Kind())] }

// addTally folds a search run's account into a Result. Phases that
// share one Result across several Run calls (the margin sweep) pass
// the driver per-phase tallies and accumulate here.
func addTally(res *Result, t *search.Tally) {
	res.Moves += t.Moves
	res.SizeUps += t.SizeUps
	res.VthSwaps += t.VthSwaps
	res.SizeDowns += t.SizeDowns
}

// engineConfig maps optimizer options onto the engine's evaluation
// parameters (the refresh cadence stays at the engine default).
func engineConfig(o Options) engine.Config {
	return engine.Config{
		TmaxPs:         o.TmaxPs,
		YieldTarget:    o.YieldTarget,
		LeakPercentile: o.LeakPercentile,
		CornerSigma:    o.CornerSigma,
	}
}

const slackEps = 1e-9
